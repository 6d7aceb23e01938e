#include "oodb/meta_bus.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace reach {

namespace {

struct BusMetrics {
  obs::Counter* useful;
  obs::Counter* useless;

  static const BusMetrics& Get() {
    static const BusMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return BusMetrics{reg.counter(obs::kBusAnnounceUseful),
                        reg.counter(obs::kBusAnnounceUseless)};
    }();
    return m;
  }
};

}  // namespace

const char* SentryKindName(SentryKind kind) {
  switch (kind) {
    case SentryKind::kMethodBefore: return "method-before";
    case SentryKind::kMethodAfter: return "method-after";
    case SentryKind::kStateChange: return "state-change";
    case SentryKind::kPersist: return "persist";
    case SentryKind::kFetch: return "fetch";
    case SentryKind::kDelete: return "delete";
    case SentryKind::kTxnBegin: return "txn-begin";
    case SentryKind::kTxnCommit: return "txn-commit";
    case SentryKind::kTxnAbort: return "txn-abort";
  }
  return "?";
}

std::string SentryEvent::ToString() const {
  std::string out = SentryKindName(kind);
  if (!class_name.empty()) {
    out += " " + class_name;
    if (!member.empty()) out += "::" + member;
  }
  if (oid.valid()) out += " on " + oid.ToString();
  if (txn != kNoTxn) out += " in txn " + std::to_string(txn);
  return out;
}

MetaBus::MetaBus() { Publish(std::make_unique<Interest>()); }

void MetaBus::Publish(std::unique_ptr<Interest> next) {
  interest_.store(next.get(), std::memory_order_release);
  snapshots_.push_back(std::move(next));
}

void MetaBus::Subscribe(PolicyManager* pm, SentryKind kind,
                        const std::string& class_name,
                        const std::string& member) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t k = static_cast<size_t>(kind);
  subs_[k].push_back({pm, class_name, member});
  const Interest& cur = *interest_.load(std::memory_order_relaxed);
  const bool wildcard = class_name.empty() || member.empty();
  std::string key = wildcard ? "" : class_name + "::" + member;
  if (wildcard ? cur.wildcard[k] : cur.exact[k].contains(key)) return;
  auto next = std::make_unique<Interest>(cur);
  if (wildcard) {
    next->wildcard[k] = true;
  } else {
    next->exact[k].insert(std::move(key));
  }
  Publish(std::move(next));
}

void MetaBus::Unsubscribe(PolicyManager* pm) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_unique<Interest>();
  for (size_t k = 0; k < subs_.size(); ++k) {
    auto& vec = subs_[k];
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [pm](const Subscription& s) {
                               return s.pm == pm;
                             }),
              vec.end());
    // Rebuild the interest tables for this kind.
    for (const Subscription& s : vec) {
      if (s.class_name.empty() || s.member.empty()) {
        next->wildcard[k] = true;
      } else {
        next->exact[k].insert(s.class_name + "::" + s.member);
      }
    }
  }
  Publish(std::move(next));
}

bool MetaBus::Monitored(SentryKind kind, std::string_view class_name,
                        std::string_view member) const {
  const Interest& interest = *interest_.load(std::memory_order_acquire);
  size_t k = static_cast<size_t>(kind);
  if (interest.wildcard[k]) return true;
  if (interest.exact[k].empty()) return false;
  // Heterogeneous probe: no "<class>::<member>" concatenation (and no
  // allocation) on this per-sentried-call path.
  return interest.exact[k].find(InterestKey{class_name, member}) !=
         interest.exact[k].end();
}

size_t MetaBus::Announce(const SentryEvent& event) {
  std::vector<PolicyManager*> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Subscription& sub : subs_[static_cast<size_t>(event.kind)]) {
      if (MatchesFilter(sub, event)) targets.push_back(sub.pm);
    }
  }
  if (targets.empty()) {
    useless_.fetch_add(1, std::memory_order_relaxed);
    BusMetrics::Get().useless->Inc();
    return 0;
  }
  useful_.fetch_add(1, std::memory_order_relaxed);
  BusMetrics::Get().useful->Inc();
  for (PolicyManager* pm : targets) pm->OnEvent(event);
  return targets.size();
}

std::vector<std::string> MetaBus::PolicyManagerNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& vec : subs_) {
    for (const Subscription& sub : vec) {
      std::string n = sub.pm->name();
      if (std::find(names.begin(), names.end(), n) == names.end()) {
        names.push_back(n);
      }
    }
  }
  return names;
}

}  // namespace reach
