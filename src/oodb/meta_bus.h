// MetaBus: the Open OODB meta-architecture "software bus". Sentries
// announce events; policy managers plugged into the bus receive the ones
// they registered interest in. The interest table lets sentries skip
// announcement entirely when nobody cares (eliminating useless overhead,
// the paper's §6.2 classification).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "oodb/sentry_event.h"

namespace reach {

/// A pluggable database component (persistence, transactions, indexing,
/// change tracking, rule management, ...).
class PolicyManager {
 public:
  virtual ~PolicyManager() = default;
  virtual std::string name() const = 0;
  virtual void OnEvent(const SentryEvent& event) = 0;
};

class MetaBus {
 public:
  MetaBus();

  /// Plug `pm` into the bus for events of `kind`. A member filter of ""
  /// means every class/member; otherwise interest is exact on
  /// "<class>::<member>".
  void Subscribe(PolicyManager* pm, SentryKind kind,
                 const std::string& class_name = "",
                 const std::string& member = "");

  void Unsubscribe(PolicyManager* pm);

  /// Is any policy manager interested? Sentries consult this before
  /// constructing an event (useful vs. useless overhead). Lock-free: it
  /// reads the interest snapshot Subscribe/Unsubscribe last published.
  bool Monitored(SentryKind kind, std::string_view class_name,
                 std::string_view member) const;

  /// Dispatch to every interested policy manager; returns how many
  /// received it.
  size_t Announce(const SentryEvent& event);

  /// Overhead accounting (paper §6.2).
  uint64_t useful_announcements() const { return useful_.load(); }
  uint64_t useless_announcements() const { return useless_.load(); }

  std::vector<std::string> PolicyManagerNames() const;

 private:
  struct Subscription {
    PolicyManager* pm;
    std::string class_name;  // empty = wildcard
    std::string member;      // empty = wildcard
  };

  static bool MatchesFilter(const Subscription& sub, const SentryEvent& ev) {
    if (!sub.class_name.empty() && sub.class_name != ev.class_name) {
      return false;
    }
    if (!sub.member.empty() && sub.member != ev.member) return false;
    return true;
  }

  /// Probe key for the exact-interest set: the two halves of a
  /// "<class>::<member>" key, so the per-call Monitored check (every
  /// sentried method invocation) hashes and compares in place instead of
  /// allocating the concatenation.
  struct InterestKey {
    std::string_view class_name;
    std::string_view member;
  };

  struct InterestHash {
    using is_transparent = void;
    static size_t Fnv(size_t h, std::string_view s) {
      for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= UINT64_C(1099511628211);
      }
      return h;
    }
    size_t operator()(std::string_view s) const {
      return Fnv(UINT64_C(14695981039346656037), s);
    }
    size_t operator()(const std::string& s) const {
      return (*this)(std::string_view(s));
    }
    size_t operator()(const InterestKey& k) const {
      size_t h = Fnv(UINT64_C(14695981039346656037), k.class_name);
      h = Fnv(h, "::");
      return Fnv(h, k.member);
    }
  };

  struct InterestEq {
    using is_transparent = void;
    static bool Matches(std::string_view s, const InterestKey& k) {
      const size_t n = k.class_name.size();
      return s.size() == n + 2 + k.member.size() &&
             s.compare(0, n, k.class_name) == 0 && s[n] == ':' &&
             s[n + 1] == ':' &&
             s.compare(n + 2, std::string_view::npos, k.member) == 0;
    }
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
    bool operator()(std::string_view a, const InterestKey& b) const {
      return Matches(a, b);
    }
    bool operator()(const InterestKey& a, std::string_view b) const {
      return Matches(b, a);
    }
    bool operator()(const InterestKey& a, const InterestKey& b) const {
      return a.class_name == b.class_name && a.member == b.member;
    }
  };

  using InterestSet =
      std::unordered_set<std::string, InterestHash, InterestEq>;

  /// Fast interest test: per kind, whether a wildcard subscription exists
  /// plus the set of exact "<class>::<member>" keys (heterogeneous lookup —
  /// see InterestKey). Immutable once published.
  struct Interest {
    std::array<bool, kNumSentryKinds> wildcard{};
    std::array<InterestSet, kNumSentryKinds> exact;
  };

  /// Make `next` the interest Monitored reads. Called with mu_ held.
  void Publish(std::unique_ptr<Interest> next);

  mutable std::mutex mu_;
  std::array<std::vector<Subscription>, kNumSentryKinds> subs_;
  // The current interest snapshot. A reader may still hold an earlier one,
  // so every snapshot lives as long as the bus (in snapshots_, guarded by
  // mu_); a subscription that adds no interest publishes none, so there
  // are as many as distinct interest changes.
  std::atomic<const Interest*> interest_;
  std::vector<std::unique_ptr<const Interest>> snapshots_;
  std::atomic<uint64_t> useful_{0};
  std::atomic<uint64_t> useless_{0};
};

}  // namespace reach
