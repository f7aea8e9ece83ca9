#include "server/frame.h"

#include <limits>

#include "common/crc32c.h"
#include "common/hyper_rect.h"
#include "storage/wire.h"

namespace nncell {
namespace server {

namespace {

const uint8_t* Bytes(std::string_view s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

// Reads n coordinates into *out and rejects a NaN or infinite one; `what`
// ("point" or "batch") prefixes the error message.
Status ReadCoordinates(wire::Reader* r, size_t n, const char* what,
                       std::vector<double>* out) {
  out->assign(n, 0.0);
  for (double& v : *out) {
    if (!r->GetF64(&v)) {
      return Status::InvalidArgument(std::string(what) + ": truncated");
    }
  }
  if (!AllFinite(out->data(), n)) {
    return Status::InvalidArgument(std::string(what) +
                                   ": non-finite coordinate");
  }
  return Status::OK();
}

}  // namespace

void EncodeFrame(uint8_t type, uint64_t request_id, std::string_view payload,
                 std::string* out) {
  wire::PutU32(out, kFrameMagic);
  wire::PutU8(out, static_cast<uint8_t>(kProtocolVersion));
  wire::PutU8(out, type);
  wire::PutRaw<uint16_t>(out, 0);  // reserved
  wire::PutU64(out, request_id);
  wire::PutU32(out, static_cast<uint32_t>(payload.size()));
  wire::PutU32(out, Crc32c(payload.data(), payload.size()));
  wire::PutBytes(out, payload.data(), payload.size());
}

Status DecodeFrameHeader(const uint8_t* data, size_t size, FrameHeader* out) {
  if (size < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header: short buffer");
  }
  wire::Reader r(data, size);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint16_t reserved = 0;
  if (!r.GetU32(&magic) || !r.GetU8(&version) || !r.GetU8(&out->type) ||
      !r.Get(&reserved) || !r.GetU64(&out->request_id) ||
      !r.GetU32(&out->payload_len) || !r.GetU32(&out->payload_crc)) {
    return Status::InvalidArgument("frame header: short buffer");
  }
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("frame header: bad magic");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("frame header: unsupported version " +
                                   std::to_string(version));
  }
  if (reserved != 0) {
    return Status::InvalidArgument("frame header: nonzero reserved bits");
  }
  if (out->payload_len > kFrameMaxPayload) {
    return Status::InvalidArgument("frame header: payload length " +
                                   std::to_string(out->payload_len) +
                                   " exceeds max " +
                                   std::to_string(kFrameMaxPayload));
  }
  return Status::OK();
}

Status VerifyPayloadCrc(const FrameHeader& header, std::string_view payload) {
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  if (crc != header.payload_crc) {
    return Status::InvalidArgument("frame payload: crc mismatch");
  }
  return Status::OK();
}

// --- request payloads -----------------------------------------------------

void EncodePointPayload(const std::vector<double>& point, std::string* out) {
  wire::PutU32(out, static_cast<uint32_t>(point.size()));
  for (double v : point) wire::PutF64(out, v);
}

Status DecodePointPayload(std::string_view payload, std::vector<double>* out) {
  ApproxOptions approx;
  bool has_approx = false;
  Status st = DecodePointPayloadWithApprox(payload, out, &approx, &has_approx);
  // An INSERT carries no approx block: its size is a mismatch, whatever
  // the bytes in it.
  if (has_approx) {
    return Status::InvalidArgument("point: payload size mismatch");
  }
  return st;
}

void EncodeBatchPayload(const std::vector<std::vector<double>>& points,
                        std::string* out) {
  wire::PutU32(out, static_cast<uint32_t>(points.size()));
  wire::PutU32(out,
               static_cast<uint32_t>(points.empty() ? 0 : points[0].size()));
  for (const auto& p : points) {
    for (double v : p) wire::PutF64(out, v);
  }
}

namespace {

void AppendApproxBlock(const ApproxOptions& approx, std::string* out) {
  wire::PutF64(out, approx.epsilon);
  wire::PutU64(out, approx.max_leaf_visits);
}

// Reads the kApproxRequestBytes trailing block. The bytes are untrusted:
// a NaN / infinite / negative epsilon would poison every distance
// comparison downstream, so they are malformed here.
Status ReadApproxBlock(wire::Reader* r, ApproxOptions* approx) {
  if (!r->GetF64(&approx->epsilon) || !r->GetU64(&approx->max_leaf_visits)) {
    return Status::InvalidArgument("approx block: truncated");
  }
  if (!(approx->epsilon >= 0.0) ||
      approx->epsilon > std::numeric_limits<double>::max()) {
    return Status::InvalidArgument("approx block: bad epsilon");
  }
  return Status::OK();
}

}  // namespace

void EncodePointPayloadWithApprox(const std::vector<double>& point,
                                  const ApproxOptions& approx,
                                  std::string* out) {
  EncodePointPayload(point, out);
  AppendApproxBlock(approx, out);
}

Status DecodePointPayloadWithApprox(std::string_view payload,
                                    std::vector<double>* out,
                                    ApproxOptions* approx, bool* has_approx) {
  wire::Reader r(Bytes(payload), payload.size());
  uint32_t dim = 0;
  if (!r.GetU32(&dim)) return Status::InvalidArgument("point: truncated");
  if (dim == 0 || dim > kMaxPointDim) {
    return Status::InvalidArgument("point: bad dimension " +
                                   std::to_string(dim));
  }
  const size_t coords = dim * sizeof(double);
  if (r.remaining() != coords && r.remaining() != coords + kApproxRequestBytes) {
    return Status::InvalidArgument("point: payload size mismatch");
  }
  *has_approx = r.remaining() == coords + kApproxRequestBytes;
  NNCELL_RETURN_IF_ERROR(ReadCoordinates(&r, dim, "point", out));
  *approx = ApproxOptions{};
  if (*has_approx) NNCELL_RETURN_IF_ERROR(ReadApproxBlock(&r, approx));
  return Status::OK();
}

void EncodeBatchPayloadWithApprox(
    const std::vector<std::vector<double>>& points,
    const ApproxOptions& approx, std::string* out) {
  EncodeBatchPayload(points, out);
  AppendApproxBlock(approx, out);
}

Status DecodeBatchPayloadWithApprox(std::string_view payload, size_t* dim,
                                    std::vector<double>* flat, size_t* count,
                                    ApproxOptions* approx, bool* has_approx) {
  wire::Reader r(Bytes(payload), payload.size());
  uint32_t n = 0;
  uint32_t d = 0;
  if (!r.GetU32(&n) || !r.GetU32(&d)) {
    return Status::InvalidArgument("batch: truncated");
  }
  if (n == 0 || n > kMaxBatchQueries) {
    return Status::InvalidArgument("batch: bad count " + std::to_string(n));
  }
  if (d == 0 || d > kMaxPointDim) {
    return Status::InvalidArgument("batch: bad dimension " +
                                   std::to_string(d));
  }
  const size_t coords = static_cast<size_t>(n) * d * sizeof(double);
  if (r.remaining() != coords && r.remaining() != coords + kApproxRequestBytes) {
    return Status::InvalidArgument("batch: payload size mismatch");
  }
  *has_approx = r.remaining() == coords + kApproxRequestBytes;
  NNCELL_RETURN_IF_ERROR(
      ReadCoordinates(&r, static_cast<size_t>(n) * d, "batch", flat));
  *approx = ApproxOptions{};
  if (*has_approx) NNCELL_RETURN_IF_ERROR(ReadApproxBlock(&r, approx));
  *dim = d;
  *count = n;
  return Status::OK();
}

void EncodeDeletePayload(uint64_t id, std::string* out) {
  wire::PutU64(out, id);
}

Status DecodeDeletePayload(std::string_view payload, uint64_t* id) {
  wire::Reader r(Bytes(payload), payload.size());
  if (!r.GetU64(id) || r.remaining() != 0) {
    return Status::InvalidArgument("delete: payload size mismatch");
  }
  return Status::OK();
}

// --- response payloads ----------------------------------------------------

void EncodeStatusPayload(uint8_t status, std::string_view message,
                         std::string* out) {
  wire::PutU8(out, status);
  if (status != kStatusOk) {
    wire::PutU32(out, static_cast<uint32_t>(message.size()));
    wire::PutBytes(out, message.data(), message.size());
  }
}

namespace {

void AppendQueryResult(const WireQueryResult& r, std::string* out) {
  wire::PutU64(out, r.id);
  wire::PutF64(out, r.dist);
  wire::PutU32(out, r.candidates);
  wire::PutU8(out, r.used_fallback);
  wire::PutU32(out, static_cast<uint32_t>(r.point.size()));
  for (double v : r.point) wire::PutF64(out, v);
  if (r.has_certificate) {
    wire::PutU8(out, r.certificate.approximate);
    wire::PutU8(out, r.certificate.terminated_early);
    wire::PutU8(out, r.certificate.truncated);
    wire::PutU64(out, r.certificate.leaf_visits);
    wire::PutF64(out, r.certificate.bound);
  }
}

Status ReadQueryResult(wire::Reader* r, WireQueryResult* out,
                       bool expect_certificate) {
  uint32_t dim = 0;
  if (!r->GetU64(&out->id) || !r->GetF64(&out->dist) ||
      !r->GetU32(&out->candidates) || !r->GetU8(&out->used_fallback) ||
      !r->GetU32(&dim)) {
    return Status::InvalidArgument("query result: truncated");
  }
  if (dim > kMaxPointDim) {
    return Status::InvalidArgument("query result: bad dimension");
  }
  out->point.assign(dim, 0.0);
  for (double& v : out->point) {
    if (!r->GetF64(&v)) {
      return Status::InvalidArgument("query result: truncated");
    }
  }
  out->has_certificate = expect_certificate;
  out->certificate = WireApproxCertificate{};
  if (expect_certificate) {
    if (!r->GetU8(&out->certificate.approximate) ||
        !r->GetU8(&out->certificate.terminated_early) ||
        !r->GetU8(&out->certificate.truncated) ||
        !r->GetU64(&out->certificate.leaf_visits) ||
        !r->GetF64(&out->certificate.bound)) {
      return Status::InvalidArgument("query result: truncated certificate");
    }
  }
  return Status::OK();
}

}  // namespace

void EncodeQueryResultPayload(const WireQueryResult& r, std::string* out) {
  EncodeStatusPayload(kStatusOk, "", out);
  AppendQueryResult(r, out);
}

void EncodeQueryBatchResultPayload(const std::vector<WireQueryResult>& rs,
                                   std::string* out) {
  EncodeStatusPayload(kStatusOk, "", out);
  wire::PutU32(out, static_cast<uint32_t>(rs.size()));
  for (const WireQueryResult& r : rs) AppendQueryResult(r, out);
}

void EncodeInsertResultPayload(uint64_t id, std::string* out) {
  EncodeStatusPayload(kStatusOk, "", out);
  wire::PutU64(out, id);
}

void EncodeStatsPayload(std::string_view json, std::string* out) {
  EncodeStatusPayload(kStatusOk, "", out);
  wire::PutU32(out, static_cast<uint32_t>(json.size()));
  wire::PutBytes(out, json.data(), json.size());
}

Status DecodeStatusPayload(std::string_view payload, uint8_t* status,
                           std::string_view* body, std::string* message) {
  wire::Reader r(Bytes(payload), payload.size());
  if (!r.GetU8(status)) {
    return Status::InvalidArgument("response: empty payload");
  }
  message->clear();
  if (*status != kStatusOk) {
    uint32_t len = 0;
    if (!r.GetU32(&len) || r.remaining() != len) {
      return Status::InvalidArgument("response: bad error message");
    }
    message->assign(reinterpret_cast<const char*>(r.cur()), len);
    *body = std::string_view();
    return Status::OK();
  }
  *body = payload.substr(r.pos());
  return Status::OK();
}

Status DecodeQueryResultBody(std::string_view body, WireQueryResult* out,
                             bool expect_certificate) {
  wire::Reader r(Bytes(body), body.size());
  NNCELL_RETURN_IF_ERROR(ReadQueryResult(&r, out, expect_certificate));
  if (r.remaining() != 0) {
    return Status::InvalidArgument("query result: trailing bytes");
  }
  return Status::OK();
}

Status DecodeQueryBatchResultBody(std::string_view body,
                                  std::vector<WireQueryResult>* out,
                                  bool expect_certificate) {
  wire::Reader r(Bytes(body), body.size());
  uint32_t n = 0;
  if (!r.GetU32(&n)) return Status::InvalidArgument("batch result: truncated");
  if (n > kMaxBatchQueries) {
    return Status::InvalidArgument("batch result: bad count");
  }
  out->assign(n, WireQueryResult());
  for (WireQueryResult& qr : *out) {
    NNCELL_RETURN_IF_ERROR(ReadQueryResult(&r, &qr, expect_certificate));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("batch result: trailing bytes");
  }
  return Status::OK();
}

Status DecodeInsertResultBody(std::string_view body, uint64_t* id) {
  wire::Reader r(Bytes(body), body.size());
  if (!r.GetU64(id) || r.remaining() != 0) {
    return Status::InvalidArgument("insert result: payload size mismatch");
  }
  return Status::OK();
}

Status DecodeStatsBody(std::string_view body, std::string* json) {
  wire::Reader r(Bytes(body), body.size());
  uint32_t len = 0;
  if (!r.GetU32(&len) || r.remaining() != len) {
    return Status::InvalidArgument("stats result: payload size mismatch");
  }
  json->assign(reinterpret_cast<const char*>(r.cur()), len);
  return Status::OK();
}

}  // namespace server
}  // namespace nncell
