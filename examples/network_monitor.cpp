// Telecommunication network management (one of the REACH project's two
// driving application studies, §2): alarm correlation with negation and
// history across transactions.
//
// Rules:
//  * LinkFlap  — if a link goes down and comes back with no technician
//    acknowledgement in between, it's a flap: count it (negation operator).
//  * AlarmStorm — five alarms from any element within a 30s validity
//    window escalate to the operations centre (history operator,
//    cross-transaction, detached rule).
#include <cstdio>
#include <filesystem>

#include "core/reach/reach_db.h"

using namespace reach;

namespace {

Status Run(const std::string& base) {
  VirtualClock clock;
  ReachOptions options;
  options.database.clock = &clock;
  options.events.async_composition = false;
  REACH_ASSIGN_OR_RETURN(std::unique_ptr<ReachDb> db,
                         ReachDb::Open(base, std::move(options)));

  REACH_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("Link")
          .Attribute("name", ValueType::kString, Value(""))
          .Attribute("up", ValueType::kBool, Value(true))
          .Attribute("flaps", ValueType::kInt, Value(0))
          .Method("down",
                  [](Session& s, DbObject& self,
                     const std::vector<Value>&) -> Result<Value> {
                    REACH_RETURN_IF_ERROR(
                        s.SetAttr(self.oid(), "up", Value(false)));
                    return Value();
                  })
          .Method("restore",
                  [](Session& s, DbObject& self,
                     const std::vector<Value>&) -> Result<Value> {
                    REACH_RETURN_IF_ERROR(
                        s.SetAttr(self.oid(), "up", Value(true)));
                    return Value();
                  })
          .Method("acknowledge",
                  [](Session&, DbObject&,
                     const std::vector<Value>&) -> Result<Value> {
                    return Value();
                  })));
  REACH_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("OpsCentre")
          .Attribute("escalations", ValueType::kInt, Value(0))));

  Session s(db->database());
  REACH_RETURN_IF_ERROR(s.Begin());
  REACH_ASSIGN_OR_RETURN(
      Oid link, s.PersistNew("Link", {{"name", Value("muc-ffm-1")}}));
  REACH_ASSIGN_OR_RETURN(Oid ops, s.PersistNew("OpsCentre", {}));
  REACH_RETURN_IF_ERROR(s.Bind("ops", ops));
  REACH_RETURN_IF_ERROR(s.Commit());

  REACH_ASSIGN_OR_RETURN(EventTypeId down_ev,
                         db->events()->DefineMethodEvent("down_ev", "Link",
                                                         "down"));
  REACH_ASSIGN_OR_RETURN(
      EventTypeId restore_ev,
      db->events()->DefineMethodEvent("restore_ev", "Link", "restore"));
  REACH_ASSIGN_OR_RETURN(
      EventTypeId ack_ev,
      db->events()->DefineMethodEvent("ack_ev", "Link", "acknowledge"));

  // Negation: down; restore with NO acknowledge in between = flap.
  REACH_ASSIGN_OR_RETURN(
      EventTypeId flap_ev,
      db->events()->DefineComposite(
          "link_flap",
          EventExpr::Not(EventExpr::Prim(down_ev), EventExpr::Prim(ack_ev),
                         EventExpr::Prim(restore_ev)),
          CompositeScope::kCrossTxn, ConsumptionPolicy::kChronicle,
          /*validity=*/300LL * 1000000));
  RuleSpec flap;
  flap.name = "LinkFlap";
  flap.event = flap_ev;
  flap.coupling = CouplingMode::kDetached;
  flap.action = [link](Session& se, const EventOccurrence&) -> Status {
    REACH_ASSIGN_OR_RETURN(Value n, se.GetAttr(link, "flaps"));
    std::printf("    [rule] unacknowledged down/restore -> flap #%lld\n",
                static_cast<long long>(n.as_int() + 1));
    return se.SetAttr(link, "flaps", Value(n.as_int() + 1));
  };
  REACH_RETURN_IF_ERROR(db->rules()->DefineRule(std::move(flap)).status());

  // History: 5 down events within 30 seconds = alarm storm.
  REACH_ASSIGN_OR_RETURN(
      EventTypeId storm_ev,
      db->events()->DefineComposite(
          "alarm_storm", EventExpr::History(EventExpr::Prim(down_ev), 5),
          CompositeScope::kCrossTxn, ConsumptionPolicy::kChronicle,
          /*validity=*/30LL * 1000000));
  RuleSpec storm;
  storm.name = "AlarmStorm";
  storm.event = storm_ev;
  storm.coupling = CouplingMode::kDetached;
  storm.action = [](Session& se, const EventOccurrence& occ) -> Status {
    REACH_ASSIGN_OR_RETURN(Oid ops_oid, se.Lookup("ops"));
    REACH_ASSIGN_OR_RETURN(Value n, se.GetAttr(ops_oid, "escalations"));
    std::printf("    [rule] %zu alarms in window -> escalate to NOC\n",
                occ.constituents.size());
    return se.SetAttr(ops_oid, "escalations", Value(n.as_int() + 1));
  };
  REACH_RETURN_IF_ERROR(db->rules()->DefineRule(std::move(storm)).status());

  auto op = [&](const char* method) -> Status {
    REACH_RETURN_IF_ERROR(s.Begin());
    REACH_RETURN_IF_ERROR(s.Invoke(link, method).status());
    REACH_RETURN_IF_ERROR(s.Commit());
    db->Drain();
    clock.Advance(1000000);
    return Status::OK();
  };

  std::printf("-- maintenance: down, acknowledged, restored (no flap) --\n");
  REACH_RETURN_IF_ERROR(op("down"));
  REACH_RETURN_IF_ERROR(op("acknowledge"));
  REACH_RETURN_IF_ERROR(op("restore"));

  std::printf("-- silent outage: down then restore (flap) --\n");
  REACH_RETURN_IF_ERROR(op("down"));
  REACH_RETURN_IF_ERROR(op("restore"));

  std::printf("-- alarm storm: rapid downs --\n");
  for (int i = 0; i < 3; ++i) {
    REACH_RETURN_IF_ERROR(op("down"));
  }
  db->Drain();

  REACH_RETURN_IF_ERROR(s.Begin());
  REACH_ASSIGN_OR_RETURN(Value flaps, s.GetAttr(link, "flaps"));
  REACH_ASSIGN_OR_RETURN(Value esc, s.GetAttr(ops, "escalations"));
  std::printf("\nlink flaps: %lld, NOC escalations: %lld\n",
              static_cast<long long>(flaps.as_int()),
              static_cast<long long>(esc.as_int()));
  REACH_RETURN_IF_ERROR(s.Commit());

  GlobalHistory* history = db->events()->global_history();
  std::printf("global history: %zu / %llu committed events retained\n",
              history->size(),
              static_cast<unsigned long long>(history->total()));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string base =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "reach_network")
                     .string();
  std::filesystem::remove(base + ".db");
  std::filesystem::remove(base + ".wal");
  Status st = Run(base);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("network monitor example finished OK\n");
  return 0;
}
