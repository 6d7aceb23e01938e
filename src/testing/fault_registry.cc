#include "testing/fault_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/spec.h"
#include "testing/fault_points.h"

namespace reach {

std::atomic<bool> FaultRegistry::enabled_{false};

namespace {

constexpr uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 finalizer: maps (seed, key) to a uniform 64-bit value so keyed
/// probability decisions are independent of evaluation order.
uint64_t MixKey(uint64_t seed, uint64_t key) {
  uint64_t x = seed ^ (key + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ToUnitDouble(uint64_t v) {
  return static_cast<double>(v >> 11) / static_cast<double>(1ULL << 53);
}

bool CodeFromName(const std::string& name, Status::Code* code) {
  static constexpr std::pair<const char*, Status::Code> kCodes[] = {
      {"io", Status::Code::kIoError},
      {"corruption", Status::Code::kCorruption},
      {"aborted", Status::Code::kAborted},
      {"busy", Status::Code::kBusy},
      {"timedout", Status::Code::kTimedOut},
      {"notfound", Status::Code::kNotFound},
      {"internal", Status::Code::kInternal}};
  for (const auto& [known, value] : kCodes) {
    if (name == known) {
      *code = value;
      return true;
    }
  }
  return false;
}

bool IsKnownPoint(const std::string& point) {
  for (const char* name : faults::kAll) {
    if (point == name) return true;
  }
  return false;
}

/// A probability in [0, 1], the whole value consumed.
bool ParseProbability(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (*end != '\0' || std::isnan(p) || p < 0.0 || p > 1.0) return false;
  *out = p;
  return true;
}

}  // namespace

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

FaultRegistry::FaultRegistry() : rng_(kDefaultSeed), seed_(kDefaultSeed) {
  for (const char* name : faults::kAll) points_.emplace(name, Point{});
  uint64_t seed = kDefaultSeed;
  if (ParseSeed(std::getenv("REACH_FAULTS_SEED"), &seed).ok()) SetSeed(seed);
  std::vector<SpecEntry> entries;
  if (ParseSpec(std::getenv("REACH_FAULTS"), &entries).ok()) {
    for (const auto& [point, fault] : entries) Arm(point, fault);
  }
}

Status FaultRegistry::ValidateSpec(const char* spec) {
  std::vector<SpecEntry> entries;
  return ParseSpec(spec, &entries);
}

Status FaultRegistry::ValidateSeed(const char* seed) {
  uint64_t parsed = 0;
  return ParseSeed(seed, &parsed);
}

Status FaultRegistry::ParseSeed(const char* seed, uint64_t* out) {
  if (seed != nullptr && !ParseSpecUnsigned(seed, UINT64_MAX, out)) {
    return Status::InvalidArgument(
        std::string("REACH_FAULTS_SEED: malformed value '") + seed + "'");
  }
  return Status::OK();
}

// REACH_FAULTS grammar (entries separated by ';' or ','):
//   <point>=error[:<code>][@<nth>]     one-shot error on the nth hit
//   <point>=crash[@<nth>]              simulated crash on the nth hit
//   <point>=perror[:<code>]:<p>        error with probability p per hit
Status FaultRegistry::ParseSpec(const char* spec,
                                std::vector<SpecEntry>* out) {
  return ForEachSpecEntry(spec, [out](const std::string& entry,
                                      const std::string& point,
                                      const std::string& value) {
    if (!IsKnownPoint(point)) {
      return Status::InvalidArgument("REACH_FAULTS: unknown fault point in '" +
                                     entry + "'");
    }
    const auto malformed = [&entry] {
      return Status::InvalidArgument("REACH_FAULTS: malformed value in '" +
                                     entry + "'");
    };
    std::string action = value;
    uint64_t nth = 1;
    const size_t at = action.find('@');
    if (at != std::string::npos) {
      if (!ParseSpecUnsigned(action.substr(at + 1), UINT64_MAX, &nth) ||
          nth == 0) {
        return malformed();
      }
      action.resize(at);
    }
    // Split "kind[:arg[:arg]]".
    std::vector<std::string> parts;
    for (size_t p = 0; p <= action.size();) {
      size_t colon = action.find(':', p);
      if (colon == std::string::npos) colon = action.size();
      parts.push_back(action.substr(p, colon - p));
      p = colon + 1;
    }
    const std::string& kind = parts[0];
    Armed fault;
    fault.remaining = nth;
    if (kind == "crash" && parts.size() == 1) {
      fault.kind = ActionKind::kCrash;
    } else if (kind == "error" && parts.size() <= 2) {
      if (parts.size() == 2 && !CodeFromName(parts[1], &fault.code)) {
        return malformed();
      }
    } else if (kind == "perror" && at == std::string::npos &&
               (parts.size() == 2 || parts.size() == 3)) {
      if (parts.size() == 3 && !CodeFromName(parts[1], &fault.code)) {
        return malformed();
      }
      if (!ParseProbability(parts.back(), &fault.probability)) {
        return malformed();
      }
      fault.one_shot = false;
    } else {
      return malformed();
    }
    out->emplace_back(point, fault);
    return Status::OK();
  });
}

void FaultRegistry::Arm(const std::string& point, Armed fault) {
  std::lock_guard<std::mutex> lock(mu_);
  Point& p = points_[point];  // unknown names register on first arm
  p.armed = true;
  p.fault = fault;
  RecomputeEnabled();
}

void FaultRegistry::ArmError(const std::string& point, Status::Code code,
                             uint64_t nth, bool one_shot) {
  Armed fault;
  fault.kind = ActionKind::kError;
  fault.code = code;
  fault.remaining = nth == 0 ? 1 : nth;
  fault.one_shot = one_shot;
  Arm(point, fault);
}

void FaultRegistry::ArmCrash(const std::string& point, uint64_t nth) {
  Armed fault;
  fault.kind = ActionKind::kCrash;
  fault.remaining = nth == 0 ? 1 : nth;
  fault.one_shot = true;
  Arm(point, fault);
}

void FaultRegistry::ArmErrorWithProbability(const std::string& point,
                                            Status::Code code, double p) {
  Armed fault;
  fault.kind = ActionKind::kError;
  fault.code = code;
  fault.probability = p;
  fault.one_shot = false;
  Arm(point, fault);
}

void FaultRegistry::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it != points_.end()) it->second.armed = false;
  RecomputeEnabled();
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, p] : points_) {
    p.armed = false;
    p.hits = 0;
    p.fired = 0;
  }
  fired_total_ = 0;
  RecomputeEnabled();
}

void FaultRegistry::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  rng_ = Random(seed);
}

uint64_t FaultRegistry::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

std::vector<std::string> FaultRegistry::Points() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(points_.size());
  for (const auto& [name, _] : points_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t FaultRegistry::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultRegistry::FiredCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fired;
}

uint64_t FaultRegistry::total_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_total_;
}

void FaultRegistry::RecomputeEnabled() {
  bool any = false;
  for (const auto& [_, p] : points_) {
    if (p.armed) {
      any = true;
      break;
    }
  }
  enabled_.store(any, std::memory_order_relaxed);
}

Status FaultRegistry::MakeError(Status::Code code, const std::string& point) {
  std::string msg = "injected fault at " + point;
  switch (code) {
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kAborted:
      return Status::Aborted(std::move(msg));
    case Status::Code::kBusy:
      return Status::Busy(std::move(msg));
    case Status::Code::kTimedOut:
      return Status::TimedOut(std::move(msg));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kInternal:
      return Status::Internal(std::move(msg));
    default:
      return Status::IoError(std::move(msg));
  }
}

Status FaultRegistry::Evaluate(const char* point) {
  return DoEvaluate(point, /*keyed=*/false, 0);
}

Status FaultRegistry::EvaluateKeyed(const char* point, uint64_t key) {
  return DoEvaluate(point, /*keyed=*/true, key);
}

Status FaultRegistry::DoEvaluate(const char* point, bool keyed, uint64_t key) {
  bool crash = false;
  Status result = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    Point& p = points_[point];
    ++p.hits;
    if (!p.armed) return Status::OK();
    Armed& fault = p.fault;

    bool fire;
    if (fault.probability >= 0.0) {
      double draw = keyed ? ToUnitDouble(MixKey(seed_, key))
                          : rng_.NextDouble();
      fire = draw < fault.probability;
    } else {
      fire = fault.remaining <= 1;
      if (!fire) --fault.remaining;
    }
    if (!fire) return Status::OK();

    ++p.fired;
    ++fired_total_;
    if (fault.one_shot) {
      p.armed = false;
      RecomputeEnabled();
    }
    if (fault.kind == ActionKind::kCrash) {
      crash = true;
    } else {
      result = MakeError(fault.code, point);
    }
  }
  if (crash) throw FaultInjectedCrash(point);
  return result;
}

namespace {
// The hot-path macros consult the static enabled_ gate without touching the
// singleton, so nothing would ever parse REACH_FAULTS in a binary that only
// arms faults from the environment. Constructing the registry at program
// start closes that hole.
[[maybe_unused]] const bool kEnvParsedAtStartup =
    (FaultRegistry::Instance(), true);
}  // namespace

}  // namespace reach
