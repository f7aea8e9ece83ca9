#ifndef NNCELL_SERVER_FRAME_H_
#define NNCELL_SERVER_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/approx.h"
#include "common/status.h"
#include "server/protocol.h"

namespace nncell {
namespace server {

// Frame encode/decode for the query-service wire protocol (protocol.h has
// the constants, docs/SERVING.md the byte layout). Encoding uses the
// storage/wire.h little-endian helpers; decoding treats its input as
// untrusted bytes from the network and reports every violation as a
// precise Status instead of CHECK-aborting.

struct FrameHeader {
  uint8_t type = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

// Serializes one complete frame (header + payload, CRC filled in).
void EncodeFrame(uint8_t type, uint64_t request_id, std::string_view payload,
                 std::string* out);

// Validates and parses the fixed kFrameHeaderBytes header. Rejects bad
// magic, unknown version, nonzero reserved bits and oversized payload
// lengths -- each a distinct message. A failure here means the byte stream
// cannot be resynchronized and the connection must be closed.
Status DecodeFrameHeader(const uint8_t* data, size_t size, FrameHeader* out);

// Checks the payload bytes against the header's CRC32C.
Status VerifyPayloadCrc(const FrameHeader& header, std::string_view payload);

// --- request payload bodies ----------------------------------------------

// Every decoder below rejects a NaN or infinite coordinate as malformed,
// per request, before it can reach a batch shared with other clients.

// QUERY / INSERT payload: u32 dim, dim * f64 coordinates.
// DecodePointPayload decodes an INSERT: DecodePointPayloadWithApprox,
// with a trailing approx block rejected as a size mismatch.
void EncodePointPayload(const std::vector<double>& point, std::string* out);
Status DecodePointPayload(std::string_view payload, std::vector<double>* out);

// QUERY_BATCH payload: u32 count, u32 dim, count * dim * f64 coordinates.
void EncodeBatchPayload(const std::vector<std::vector<double>>& points,
                        std::string* out);

// --- approximate query tier ------------------------------------------------
// A QUERY / QUERY_BATCH request may append one optional approx block
// (kApproxRequestBytes: f64 epsilon, u64 max_leaf_visits) after the
// coordinates. The Decode*WithApprox variants accept payloads with or
// without the block and report which form arrived; the With variants of
// the encoders always append it. INSERT payloads never carry the block
// (DecodePointPayload refuses it).

void EncodePointPayloadWithApprox(const std::vector<double>& point,
                                  const ApproxOptions& approx,
                                  std::string* out);
Status DecodePointPayloadWithApprox(std::string_view payload,
                                    std::vector<double>* out,
                                    ApproxOptions* approx, bool* has_approx);
void EncodeBatchPayloadWithApprox(
    const std::vector<std::vector<double>>& points,
    const ApproxOptions& approx, std::string* out);
Status DecodeBatchPayloadWithApprox(std::string_view payload, size_t* dim,
                                    std::vector<double>* flat, size_t* count,
                                    ApproxOptions* approx, bool* has_approx);

// DELETE payload: u64 id.
void EncodeDeletePayload(uint64_t id, std::string* out);
Status DecodeDeletePayload(std::string_view payload, uint64_t* id);

// --- response payload bodies ---------------------------------------------
// Every response payload begins with one status byte (protocol.h). A
// kStatusOk payload continues with the type-specific body below; any other
// status continues with u32 message_len + message bytes.

// Approx certificate on the wire (kApproxCertificateBytes): u8
// approximate, u8 terminated_early, u8 truncated, u64 leaf_visits, f64
// bound. Present after a result if and only if the request carried the
// approx block.
struct WireApproxCertificate {
  uint8_t approximate = 0;
  uint8_t terminated_early = 0;
  uint8_t truncated = 0;
  uint64_t leaf_visits = 0;
  double bound = 0.0;

  bool operator==(const WireApproxCertificate& o) const {
    return approximate == o.approximate &&
           terminated_early == o.terminated_early &&
           truncated == o.truncated && leaf_visits == o.leaf_visits &&
           bound == o.bound;
  }
};

// One NN answer: u64 id, f64 dist, u32 candidates, u8 used_fallback,
// u32 dim, dim * f64 point coordinates (+ optional certificate, above).
struct WireQueryResult {
  uint64_t id = 0;
  double dist = 0.0;
  uint32_t candidates = 0;
  uint8_t used_fallback = 0;
  std::vector<double> point;
  bool has_certificate = false;
  WireApproxCertificate certificate;

  bool operator==(const WireQueryResult& o) const {
    return id == o.id && dist == o.dist && candidates == o.candidates &&
           used_fallback == o.used_fallback && point == o.point &&
           has_certificate == o.has_certificate &&
           (!has_certificate || certificate == o.certificate);
  }
};

void EncodeStatusPayload(uint8_t status, std::string_view message,
                         std::string* out);
void EncodeQueryResultPayload(const WireQueryResult& r, std::string* out);
// QUERY_BATCH response body: u32 count, count * WireQueryResult.
void EncodeQueryBatchResultPayload(const std::vector<WireQueryResult>& rs,
                                   std::string* out);
// INSERT response body: u64 assigned id.
void EncodeInsertResultPayload(uint64_t id, std::string* out);
// STATS_JSON response body: u32 len + JSON bytes.
void EncodeStatsPayload(std::string_view json, std::string* out);

// Splits any response payload into (status, rest-of-payload view); for a
// non-OK status also extracts the error message.
Status DecodeStatusPayload(std::string_view payload, uint8_t* status,
                           std::string_view* body, std::string* message);
// `expect_certificate` mirrors whether the request carried the approx
// block: the encoders append a certificate per result iff
// r.has_certificate, and the decoders require one per result iff
// expect_certificate (the batch body concatenates results, so presence
// cannot be inferred from leftover bytes).
Status DecodeQueryResultBody(std::string_view body, WireQueryResult* out,
                             bool expect_certificate = false);
Status DecodeQueryBatchResultBody(std::string_view body,
                                  std::vector<WireQueryResult>* out,
                                  bool expect_certificate = false);
Status DecodeInsertResultBody(std::string_view body, uint64_t* id);
Status DecodeStatsBody(std::string_view body, std::string* json);

}  // namespace server
}  // namespace nncell

#endif  // NNCELL_SERVER_FRAME_H_
