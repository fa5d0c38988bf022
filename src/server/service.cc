#include "src/server/service.h"

#include <chrono>
#include <sstream>

#include "src/analysis/ir_validator.h"
#include "src/core/espresso.h"
#include "src/core/eval_cache.h"
#include "src/core/strategy_ir.h"
#include "src/ddl/job_config.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/util/json_reader.h"
#include "src/util/json_writer.h"

namespace espresso::server {

namespace {

using Clock = std::chrono::steady_clock;

// Lazily registered service metrics (idempotent against the global registry).
struct ServeMetrics {
  obs::Counter requests;
  obs::Counter served;
  obs::Counter rejected;
  obs::Counter cache_hits;
  obs::Counter cache_misses;
  obs::Gauge inflight;
  obs::Histogram selection_seconds;
  obs::Histogram validate_seconds;
  obs::Histogram serialize_seconds;
};

const ServeMetrics& Metrics() {
  static const ServeMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::GlobalMetrics();
    ServeMetrics m;
    m.requests = registry.RegisterCounter("espresso_serve_requests_total",
                                          "Requests received by the selection service");
    m.served = registry.RegisterCounter("espresso_serve_served_total",
                                        "Select requests answered with a validated IR");
    m.rejected = registry.RegisterCounter(
        "espresso_serve_rejected_total",
        "Select requests refused with a typed error (see the audit log for codes)");
    m.cache_hits = registry.RegisterCounter(
        "espresso_serve_cache_hits_total",
        "F(S) cache hits across served selections (shared per config triple)");
    m.cache_misses = registry.RegisterCounter(
        "espresso_serve_cache_misses_total",
        "F(S) cache misses across served selections");
    m.inflight = registry.RegisterGauge("espresso_serve_inflight",
                                        "Selections currently running");
    m.selection_seconds = registry.RegisterHistogram(
        "espresso_serve_selection_seconds", "Wall-clock time of served selections",
        obs::DefaultTimeBuckets());
    m.validate_seconds = registry.RegisterHistogram(
        "espresso_serve_validate_seconds",
        "Wall-clock time of the fail-closed IR admission pipeline per served selection",
        obs::DefaultTimeBuckets());
    m.serialize_seconds = registry.RegisterHistogram(
        "espresso_serve_serialize_seconds",
        "Wall-clock time rendering the IR text and the select response JSON",
        obs::DefaultTimeBuckets());
    return m;
  }();
  return metrics;
}

std::string JsonString(const JsonValue* value) {
  return value != nullptr && value->IsString() ? value->text : std::string();
}

}  // namespace

// A parsed select request. Kept in the .cc: the wire schema is the contract,
// not this struct.
struct SelectRequest {
  std::string id;
  std::string tenant;
  std::string model_text;
  std::string gc_text;
  std::string system_text;
  // Budget knobs, all optional on the wire.
  int64_t deadline_ms = -1;  // < 0 = no deadline; 0 = already expired (for tests)
  bool has_deadline = false;
  size_t threads = 0;
  size_t offload_search_budget = 0;  // 0 = selector default
};

const char* ServeErrorCode(ServeError error) {
  switch (error) {
    case ServeError::kNone:
      return "none";
    case ServeError::kMalformedRequest:
      return "malformed-request";
    case ServeError::kUnsupportedType:
      return "unsupported-type";
    case ServeError::kPayloadTooLarge:
      return "payload-too-large";
    case ServeError::kBadConfig:
      return "bad-config";
    case ServeError::kOverCapacity:
      return "over-capacity";
    case ServeError::kQuotaExhausted:
      return "quota-exhausted";
    case ServeError::kDeadlineExpired:
      return "deadline-expired";
    case ServeError::kValidationFailed:
      return "validation-failed";
  }
  return "unknown";
}

SelectionService::SelectionService(ServiceConfig config, obs::AuditLog* audit)
    : config_(std::move(config)), audit_(audit) {}

std::string SelectionService::HandleRequest(std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
  }
  obs::GlobalMetrics().Add(Metrics().requests);

  if (payload.size() > config_.max_request_bytes) {
    return ErrorResponse("", "", ServeError::kPayloadTooLarge,
                         "request of " + std::to_string(payload.size()) +
                             " bytes exceeds the " +
                             std::to_string(config_.max_request_bytes) + "-byte limit");
  }
  const JsonParseResult parsed = ParseJson(payload);
  if (!parsed.ok) {
    return ErrorResponse("", "", ServeError::kMalformedRequest,
                         "request is not valid JSON: " + parsed.error);
  }
  if (!parsed.value.IsObject()) {
    return ErrorResponse("", "", ServeError::kMalformedRequest,
                         "request must be a JSON object");
  }
  const std::string id = JsonString(parsed.value.Find("id"));
  const std::string type = JsonString(parsed.value.Find("type"));
  if (type == "health") {
    return HandleHealth(id);
  }
  if (type == "metrics") {
    std::string format = JsonString(parsed.value.Find("format"));
    if (format.empty()) {
      format = "prometheus";
    }
    if (format != "prometheus" && format != "json") {
      return ErrorResponse(id, "", ServeError::kMalformedRequest,
                           "metrics format must be \"prometheus\" or \"json\"");
    }
    return HandleMetrics(id, format);
  }
  if (type != "select") {
    return ErrorResponse(id, JsonString(parsed.value.Find("tenant")),
                         ServeError::kUnsupportedType,
                         type.empty() ? "request has no \"type\" field"
                                      : "unsupported request type \"" + type + "\"");
  }

  SelectRequest request;
  request.id = id;
  request.tenant = JsonString(parsed.value.Find("tenant"));
  if (request.tenant.empty()) {
    return ErrorResponse(id, "", ServeError::kMalformedRequest,
                         "select request has no \"tenant\" field");
  }
  const JsonValue* config = parsed.value.Find("config");
  if (config == nullptr || !config->IsObject()) {
    return ErrorResponse(id, request.tenant, ServeError::kMalformedRequest,
                         "select request has no \"config\" object");
  }
  request.model_text = JsonString(config->Find("model"));
  request.gc_text = JsonString(config->Find("gc"));
  request.system_text = JsonString(config->Find("system"));
  if (request.model_text.empty() || request.gc_text.empty() ||
      request.system_text.empty()) {
    return ErrorResponse(id, request.tenant, ServeError::kMalformedRequest,
                         "\"config\" must carry non-empty \"model\", \"gc\", and "
                         "\"system\" INI payloads");
  }
  if (const JsonValue* budget = parsed.value.Find("budget");
      budget != nullptr && budget->IsObject()) {
    if (const JsonValue* deadline = budget->Find("deadline_ms"); deadline != nullptr) {
      if (!deadline->AsInt64(&request.deadline_ms)) {
        return ErrorResponse(id, request.tenant, ServeError::kMalformedRequest,
                             "\"budget.deadline_ms\" must be an integer");
      }
      request.has_deadline = request.deadline_ms >= 0;
    }
    if (const JsonValue* threads = budget->Find("threads"); threads != nullptr) {
      uint64_t value = 0;
      if (!threads->AsUint64(&value)) {
        return ErrorResponse(id, request.tenant, ServeError::kMalformedRequest,
                             "\"budget.threads\" must be a non-negative integer");
      }
      request.threads = static_cast<size_t>(value);
    }
    if (const JsonValue* budget_ops = budget->Find("offload_search_budget");
        budget_ops != nullptr) {
      uint64_t value = 0;
      if (!budget_ops->AsUint64(&value)) {
        return ErrorResponse(id, request.tenant, ServeError::kMalformedRequest,
                             "\"budget.offload_search_budget\" must be a non-negative "
                             "integer");
      }
      request.offload_search_budget = static_cast<size_t>(value);
    }
  }
  return HandleSelect(request);
}

std::string SelectionService::HandleSelect(const SelectRequest& request) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::milliseconds(request.has_deadline ? request.deadline_ms : 0);

  // Admission control: bounded concurrency, refused loudly rather than queued
  // invisibly (the client can retry with backoff; a hidden queue would make every
  // deadline meaningless under load).
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_ < config_.max_inflight) {
      ++inflight_;
      obs::GlobalMetrics().Set(Metrics().inflight, static_cast<double>(inflight_));
      admitted = true;
    }
  }
  if (!admitted) {
    return ErrorResponse(request.id, request.tenant, ServeError::kOverCapacity,
                         "all " + std::to_string(config_.max_inflight) +
                             " selection slots are busy; retry with backoff");
  }

  // Everything below must release the in-flight slot on every path.
  struct SlotRelease {
    SelectionService* service;
    ~SlotRelease() {
      std::lock_guard<std::mutex> lock(service->mu_);
      --service->inflight_;
      obs::GlobalMetrics().Set(Metrics().inflight,
                               static_cast<double>(service->inflight_));
    }
  } release{this};

  // Quota check before any work: a spent tenant must not consume a slot's worth
  // of CPU just to be refused afterwards.
  uint64_t quota = config_.default_quota;
  if (const auto it = config_.tenant_quotas.find(request.tenant);
      it != config_.tenant_quotas.end()) {
    quota = it->second;
  }
  if (quota > 0) {
    uint64_t used = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = tenant_used_.find(request.tenant);
      if (it != tenant_used_.end()) {
        used = it->second;
      }
    }
    // mu_ must be released before ErrorResponse (which re-locks to count).
    if (used >= quota) {
      return ErrorResponse(request.id, request.tenant, ServeError::kQuotaExhausted,
                           "tenant \"" + request.tenant + "\" has used " +
                               std::to_string(used) + " of " + std::to_string(quota) +
                               " evaluation quota");
    }
  }

  const ConfigFile model_file = ConfigFile::ParseString(request.model_text);
  const ConfigFile gc_file = ConfigFile::ParseString(request.gc_text);
  const ConfigFile system_file = ConfigFile::ParseString(request.system_text);
  const JobConfigResult loaded = LoadJobConfig(model_file, gc_file, system_file);
  if (!loaded.ok) {
    return ErrorResponse(request.id, request.tenant, ServeError::kBadConfig,
                         loaded.error);
  }
  const JobConfig& job = loaded.job;
  const auto compressor = job.MakeCompressor();
  // The selector CHECK-aborts on compressors without a deterministic compressed
  // size (§4.3's applicability requirement). A CLI abort is an error message; a
  // server abort is an outage every tenant shares — refuse the config instead.
  if (!compressor->HasDeterministicSize()) {
    return ErrorResponse(request.id, request.tenant, ServeError::kBadConfig,
                         "compressor '" + job.compressor.algorithm +
                             "' has a content-dependent compressed size and cannot "
                             "drive strategy selection");
  }

  if (request.has_deadline && Clock::now() >= deadline) {
    return ErrorResponse(request.id, request.tenant, ServeError::kDeadlineExpired,
                         "deadline of " + std::to_string(request.deadline_ms) +
                             " ms expired before selection started");
  }

  // Identical selection setup to espresso_cli: default SelectorOptions, candidate
  // pruning only under a user max_compress_ops constraint. Thread count and the
  // offload budget are bit-exact knobs (docs/PERFORMANCE.md), so per-request
  // budgets cannot change WHICH strategy a config triple gets — only how fast.
  SelectorOptions options;
  if (job.max_compress_ops > 0) {
    TreeConfig tree{job.cluster.machines, job.cluster.gpus_per_machine,
                    compressor->SupportsCompressedAggregation(), job.max_compress_ops};
    options.candidates = CandidateOptions(tree);
  }
  options.threads = request.threads;
  if (request.offload_search_budget > 0) {
    options.offload_search_budget = request.offload_search_budget;
  }
  options.cache_capacity = config_.cache_capacity;

  // The shared F(S) cache for this evaluator configuration. Keying by the digest
  // triple is what makes cross-request sharing sound: a fingerprint means nothing
  // outside its (model, cluster, compressor) domain.
  const uint64_t model_digest = ModelDigest(job.model);
  const uint64_t cluster_digest = ClusterDigest(job.cluster);
  const uint64_t compression_digest = CompressionDigest(job.compressor);
  const std::string digest_key = DigestHex(model_digest) + ":" +
                                 DigestHex(cluster_digest) + ":" +
                                 DigestHex(compression_digest);
  std::shared_ptr<EvaluationCache> cache = CacheFor(digest_key);

  EspressoSelector selector(job.model, job.cluster, *compressor, options, cache);
  const SelectionResult result = selector.Select();
  const double selection_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  obs::GlobalMetrics().Observe(Metrics().selection_seconds, selection_seconds);
  obs::GlobalMetrics().Add(Metrics().cache_hits, result.telemetry.cache_hits);
  obs::GlobalMetrics().Add(Metrics().cache_misses, result.telemetry.cache_misses);

  // Charge the tenant for the work actually done — including work whose result is
  // about to be discarded for a blown deadline; the CPU was spent either way.
  uint64_t tenant_total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tenant_total = tenant_used_[request.tenant] += result.telemetry.evaluations;
  }

  if (request.has_deadline && Clock::now() >= deadline) {
    return ErrorResponse(request.id, request.tenant, ServeError::kDeadlineExpired,
                         "deadline of " + std::to_string(request.deadline_ms) +
                             " ms expired during selection (result discarded)");
  }

  // Same provenance as espresso_cli --ir-out, so the document is byte-identical.
  StrategyProvenance provenance;
  provenance.origin = "selector";
  provenance.selector = "espresso";
  const StrategyIR ir = CompileStrategyIR(result.strategy, result.iteration_time,
                                          job.model, job.cluster, job.compressor,
                                          provenance);

  // Fail-closed: the IR leaves this process only after the full admission pipeline
  // (digest comparison, strategy lint, schedule re-verification) passes against the
  // very configuration it was selected for.
  IRValidationOptions validate;
  validate.max_compress_ops = job.max_compress_ops;
  const Clock::time_point validate_start = Clock::now();
  const IRValidationResult admitted_ir = ValidateStrategyIR(
      ir, job.model, job.cluster, *compressor, job.compressor, validate);
  obs::GlobalMetrics().Observe(
      Metrics().validate_seconds,
      std::chrono::duration<double>(Clock::now() - validate_start).count());
  if (!admitted_ir.ok) {
    std::ostringstream detail;
    admitted_ir.report.PrintTable(detail);
    return ErrorResponse(request.id, request.tenant, ServeError::kValidationFailed,
                         "selected strategy refused by the fail-closed admission "
                         "pipeline:\n" +
                             detail.str());
  }

  const Clock::time_point serialize_start = Clock::now();
  const std::string ir_text = StrategyIRToString(ir);
  const std::string payload_digest = DigestHex(ir.ContentDigest());
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("ok", true);
    json.Field("type", "select");
    json.Field("id", request.id);
    json.Field("tenant", request.tenant);
    json.Field("ir", ir_text);
    json.Field("payload_digest", payload_digest);
    json.Field("fs_score", result.iteration_time);
    json.Field("validated", true);
    json.Key("telemetry");
    json.BeginObject();
    json.Field("evaluations", result.telemetry.evaluations);
    json.Field("simulations", result.telemetry.simulations);
    json.Field("cache_hits", result.telemetry.cache_hits);
    json.Field("cache_misses", result.telemetry.cache_misses);
    json.Field("selection_seconds", selection_seconds);
    json.Field("tenant_used", tenant_total);
    json.EndObject();
    json.EndObject();
  }
  obs::GlobalMetrics().Observe(
      Metrics().serialize_seconds,
      std::chrono::duration<double>(Clock::now() - serialize_start).count());

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++served_;
  }
  obs::GlobalMetrics().Add(Metrics().served);
  if (audit_ != nullptr) {
    audit_->Append("serve", [&](JsonWriter& json) {
      json.Field("id", request.id);
      json.Field("tenant", request.tenant);
      json.Field("payload_digest", payload_digest);
      json.Field("model_digest", DigestHex(model_digest));
      json.Field("cluster_digest", DigestHex(cluster_digest));
      json.Field("compression_digest", DigestHex(compression_digest));
      json.Field("fs_ms", result.iteration_time * 1e3);
      json.Field("evaluations", result.telemetry.evaluations);
      json.Field("cache_hits", result.telemetry.cache_hits);
      json.Field("tenant_used", tenant_total);
    });
  }

  return out.str();
}

std::string SelectionService::HandleMetrics(const std::string& id,
                                            const std::string& format) {
  std::ostringstream body;
  const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Scrape();
  if (format == "json") {
    obs::WriteMetricsJson(snapshot, body);
  } else {
    obs::WritePrometheus(snapshot, body);
  }
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("ok", true);
    json.Field("type", "metrics");
    json.Field("id", id);
    json.Field("format", format);
    json.Field("body", body.str());
    json.EndObject();
  }
  return out.str();
}

std::string SelectionService::HandleHealth(const std::string& id) {
  ServiceStats current = stats();
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("ok", true);
    json.Field("type", "health");
    json.Field("id", id);
    json.Field("status", "ok");
    json.Field("inflight", static_cast<uint64_t>(current.inflight));
    json.Field("served", current.served);
    json.Field("rejected", current.rejected);
    json.Field("cached_configs", static_cast<uint64_t>(current.cached_configs));
    json.Field("audit_write_failed", audit_ != nullptr && audit_->write_failed());
    json.Field("audit_write_failures",
               audit_ != nullptr ? audit_->write_failures() : 0);
    json.EndObject();
  }
  return out.str();
}

std::string SelectionService::ErrorResponse(const std::string& id,
                                            const std::string& tenant,
                                            ServeError error,
                                            const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++rejected_;
  }
  obs::GlobalMetrics().Add(Metrics().rejected);
  if (audit_ != nullptr) {
    audit_->Append("reject", [&](JsonWriter& json) {
      json.Field("id", id);
      json.Field("tenant", tenant);
      json.Field("code", ServeErrorCode(error));
      json.Field("message", message);
    });
  }
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("ok", false);
    json.Field("type", "error");
    json.Field("id", id);
    json.Field("tenant", tenant);
    json.Key("error");
    json.BeginObject();
    json.Field("code", ServeErrorCode(error));
    json.Field("message", message);
    json.EndObject();
    json.EndObject();
  }
  return out.str();
}

std::shared_ptr<EvaluationCache> SelectionService::CacheFor(
    const std::string& digest_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_pool_.find(digest_key);
  if (it == cache_pool_.end()) {
    while (cache_pool_.size() >= config_.max_cached_configs && !cache_pool_.empty()) {
      auto oldest = cache_pool_.begin();
      for (auto candidate = cache_pool_.begin(); candidate != cache_pool_.end();
           ++candidate) {
        if (candidate->second.second < oldest->second.second) {
          oldest = candidate;
        }
      }
      cache_pool_.erase(oldest);
    }
    it = cache_pool_
             .emplace(digest_key,
                      std::make_pair(
                          std::make_shared<EvaluationCache>(config_.cache_capacity),
                          pool_clock_))
             .first;
  }
  it->second.second = ++pool_clock_;
  return it->second.first;
}

ServiceStats SelectionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats stats;
  stats.requests = requests_;
  stats.served = served_;
  stats.rejected = rejected_;
  stats.inflight = inflight_;
  stats.cached_configs = cache_pool_.size();
  return stats;
}

uint64_t SelectionService::TenantUsed(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenant_used_.find(tenant);
  return it != tenant_used_.end() ? it->second : 0;
}

}  // namespace espresso::server
