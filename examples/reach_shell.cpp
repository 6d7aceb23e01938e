// Interactive REACH shell — the §7 future-work "user interface for rule
// definition and management", as a terminal tool. Define classes, persist
// objects, write ECA rules in the rule language, run OQL queries, and
// watch rules fire, all against a persistent database.
//
//   ./reach_shell [db-path-base]        (state survives restarts)
//
// Commands:
//   class <Name> [<attr>:<int|double|string|bool|ref> ...]
//   new <Class> [<attr>=<value> ...]        -> prints OID
//   bind <name> <page.slot.gen>             name an object
//   get <name>                               show an object
//   set <name>.<attr> = <value>              write an attribute
//   del <name>                               delete object (keeps binding)
//   rule ...rule-language...;                define rules (single line ok)
//   rules                                    list rules with statistics
//   events                                   list registered event types
//   query <select ...>                       run an OQL[C++] query
//   begin | commit | abort                   manual transaction control
//   history                                  global event history size
//   metrics [on|off|reset]                   observability snapshot (JSON)
//   storage                                  buffer pool stats
//   help | quit
//
// Without explicit begin/commit each command runs in its own transaction.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/reach/reach_db.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/storage_manager.h"

using namespace reach;

namespace {

Value ParseValue(const std::string& text) {
  if (text == "true") return Value(true);
  if (text == "false") return Value(false);
  if (text == "null") return Value();
  if (!text.empty() && text.front() == '"' && text.back() == '"') {
    return Value(text.substr(1, text.size() - 2));
  }
  try {
    if (text.find('.') != std::string::npos) return Value(std::stod(text));
    size_t pos = 0;
    int64_t v = std::stoll(text, &pos);
    if (pos == text.size()) return Value(v);
  } catch (...) {
  }
  return Value(text);  // bare word = string
}

ValueType ParseType(const std::string& name) {
  if (name == "int") return ValueType::kInt;
  if (name == "double") return ValueType::kDouble;
  if (name == "bool") return ValueType::kBool;
  if (name == "ref") return ValueType::kRef;
  return ValueType::kString;
}

class Shell {
 public:
  explicit Shell(ReachDb* db) : db_(db), session_(db->database()) {}

  void Loop() {
    std::string line;
    std::printf("REACH shell — 'help' for commands\n");
    while (std::printf("reach> "), std::fflush(stdout),
           std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
    if (session_.txn_depth() > 0) {
      std::printf("(aborting open transaction)\n");
      (void)session_.AbortAll();
    }
  }

 private:
  /// Run `fn` in the open transaction, or a one-shot one.
  Status InTxn(const std::function<Status()>& fn) {
    if (session_.txn_depth() > 0) return fn();
    REACH_RETURN_IF_ERROR(session_.Begin());
    Status st = fn();
    if (st.ok()) return session_.Commit();
    (void)session_.Abort();
    return st;
  }

  void Report(const Status& st) {
    if (!st.ok()) std::printf("error: %s\n", st.ToString().c_str());
  }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf(
          "class new bind get set del rule rules events query begin commit "
          "abort history stats trace [on|off|clear] "
          "metrics [on|off|reset] storage checkpoint quit\n");
    } else if (cmd == "class") {
      std::string name;
      in >> name;
      ClassBuilder builder(name);
      std::string attr;
      while (in >> attr) {
        size_t colon = attr.find(':');
        std::string aname = attr.substr(0, colon);
        ValueType type = colon == std::string::npos
                             ? ValueType::kString
                             : ParseType(attr.substr(colon + 1));
        Value dflt;
        switch (type) {
          case ValueType::kInt: dflt = Value(0); break;
          case ValueType::kDouble: dflt = Value(0.0); break;
          case ValueType::kBool: dflt = Value(false); break;
          case ValueType::kString: dflt = Value(""); break;
          default: break;
        }
        builder.Attribute(aname, type, dflt);
      }
      Report(db_->RegisterClass(builder));
    } else if (cmd == "new") {
      std::string cls;
      in >> cls;
      std::vector<std::pair<std::string, Value>> attrs;
      std::string kv;
      while (in >> kv) {
        size_t eq = kv.find('=');
        if (eq == std::string::npos) continue;
        attrs.emplace_back(kv.substr(0, eq), ParseValue(kv.substr(eq + 1)));
      }
      Report(InTxn([&]() -> Status {
        REACH_ASSIGN_OR_RETURN(Oid oid,
                               session_.PersistNew(cls, std::move(attrs)));
        std::printf("%s\n", oid.ToString().c_str());
        return Status::OK();
      }));
    } else if (cmd == "bind") {
      std::string name, oid_text;
      in >> name >> oid_text;
      unsigned page, slot, gen;
      if (std::sscanf(oid_text.c_str(), "%u.%u.%u", &page, &slot, &gen) !=
          3) {
        std::printf("usage: bind <name> <page.slot.gen>\n");
        return true;
      }
      Oid oid{static_cast<PageId>(page), static_cast<SlotId>(slot),
              static_cast<uint16_t>(gen)};
      Report(InTxn([&] { return session_.Bind(name, oid); }));
    } else if (cmd == "get") {
      std::string name;
      in >> name;
      Report(InTxn([&]() -> Status {
        REACH_ASSIGN_OR_RETURN(auto obj, session_.FetchByName(name));
        std::printf("%s\n", obj->ToString().c_str());
        return Status::OK();
      }));
    } else if (cmd == "set") {
      // set <name>.<attr> = <value>
      std::string target, eq, value_text;
      in >> target >> eq;
      std::getline(in, value_text);
      size_t dot = target.find('.');
      if (dot == std::string::npos || eq != "=") {
        std::printf("usage: set <name>.<attr> = <value>\n");
        return true;
      }
      size_t start = value_text.find_first_not_of(' ');
      value_text =
          start == std::string::npos ? "" : value_text.substr(start);
      Report(InTxn([&]() -> Status {
        REACH_ASSIGN_OR_RETURN(Oid oid,
                               session_.Lookup(target.substr(0, dot)));
        return session_.SetAttr(oid, target.substr(dot + 1),
                                ParseValue(value_text));
      }));
    } else if (cmd == "del") {
      std::string name;
      in >> name;
      Report(InTxn([&]() -> Status {
        REACH_ASSIGN_OR_RETURN(Oid oid, session_.Lookup(name));
        return session_.Delete(oid);
      }));
    } else if (cmd == "rule") {
      std::string rest;
      std::getline(in, rest);
      std::string source = "rule " + rest;
      // Keep reading lines until the closing "};".
      while (source.find("};") == std::string::npos) {
        std::string more;
        std::printf("  ...> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, more)) break;
        source += "\n" + more;
      }
      auto rules = db_->DefineRules(source);
      if (rules.ok()) {
        std::printf("defined %zu rule(s)\n", rules->size());
      } else {
        Report(rules.status());
      }
    } else if (cmd == "rules") {
      for (const std::string& name : db_->rules()->RuleNames()) {
        const Rule* rule = db_->rules()->FindRule(name);
        std::printf("%-20s prio=%-3d %-13s triggered=%llu fired=%llu\n",
                    name.c_str(), rule->spec.priority,
                    CouplingModeName(rule->spec.coupling),
                    static_cast<unsigned long long>(rule->stats.triggered),
                    static_cast<unsigned long long>(rule->stats.actions_run));
      }
    } else if (cmd == "events") {
      for (const EventDescriptor* desc :
           db_->events()->registry()->AllEvents()) {
        std::printf("%-4u %-28s %s\n", desc->id, desc->name.c_str(),
                    EventCategoryName(desc->category));
      }
    } else if (cmd == "query") {
      std::string rest;
      std::getline(in, rest);
      Report(InTxn([&]() -> Status {
        REACH_ASSIGN_OR_RETURN(QueryResult result,
                               db_->Query(session_, "query" == cmd
                                                        ? rest.substr(1)
                                                        : rest));
        for (const QueryRow& row : result.rows) {
          std::string out = row.oid.ToString();
          for (const Value& v : row.values) out += "  " + v.ToString();
          std::printf("%s\n", out.c_str());
        }
        std::printf(
            "(%zu row(s); scanned=%zu morsels=%zu workers=%zu index=%s "
            "time=%.3f ms)\n",
            result.rows.size(), result.scanned, result.morsels,
            result.workers, result.used_index ? "yes" : "no",
            static_cast<double>(result.exec_ns) / 1e6);
        return Status::OK();
      }));
    } else if (cmd == "begin") {
      Report(session_.Begin());
    } else if (cmd == "commit") {
      Report(session_.Commit());
    } else if (cmd == "abort") {
      Report(session_.Abort());
    } else if (cmd == "history") {
      db_->Drain();
      GlobalHistory* history = db_->events()->global_history();
      std::printf("global history: %zu / %llu committed events retained\n",
                  history->size(),
                  static_cast<unsigned long long>(history->total()));
    } else if (cmd == "trace") {
      std::string arg;
      in >> arg;
      if (arg == "on") {
        db_->rules()->trace()->set_enabled(true);
        std::printf("rule tracing enabled\n");
      } else if (arg == "off") {
        db_->rules()->trace()->set_enabled(false);
        std::printf("rule tracing disabled\n");
      } else if (arg == "clear") {
        db_->rules()->trace()->Clear();
      } else {
        db_->Drain();
        for (const RuleTraceEntry& entry :
             db_->rules()->trace()->Snapshot()) {
          std::printf("%s\n", entry.ToString().c_str());
        }
      }
    } else if (cmd == "stats") {
      db_->Drain();
      std::printf("%s", db_->StatsReport().c_str());
    } else if (cmd == "metrics") {
      std::string arg;
      in >> arg;
      auto& reg = obs::MetricsRegistry::Instance();
      if (arg == "on") {
        reg.SetEnabled(true);
        std::printf("metrics enabled\n");
      } else if (arg == "off") {
        reg.SetEnabled(false);
        std::printf("metrics disabled\n");
      } else if (arg == "reset") {
        reg.ResetAll();
      } else {
        if (!obs::MetricsEnabled()) {
          std::printf("(metrics are off — 'metrics on' to start recording)\n");
        }
        db_->Drain();
        std::printf("%s\n", reg.SnapshotJson().c_str());
      }
    } else if (cmd == "storage") {
      BufferPool* pool = db_->database()->storage()->buffer_pool();
      std::printf("dirty_ratio      %.3f\n", pool->dirty_ratio());
      auto lock_wait = obs::MetricsRegistry::Instance()
                           .histogram(obs::kBufLockWaitNs)
                           ->Snapshot();
      if (lock_wait.count == 0) {
        std::printf("pool lock wait   (no samples — 'metrics on' to record)\n");
      } else {
        std::printf(
            "pool lock wait   n=%llu mean=%.0fns p99=%lluns max=%lluns\n",
            static_cast<unsigned long long>(lock_wait.count),
            lock_wait.Mean(),
            static_cast<unsigned long long>(lock_wait.ValueAtPercentile(99)),
            static_cast<unsigned long long>(lock_wait.max));
      }
    } else if (cmd == "checkpoint") {
      Report(db_->Checkpoint());
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
    return true;
  }

  ReachDb* db_;
  Session session_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string base = argc > 1 ? argv[1] : "/tmp/reach_shell";
  auto db = ReachDb::Open(base);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  Shell shell(db->get());
  shell.Loop();
  return 0;
}
