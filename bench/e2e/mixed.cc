// mixed: the powerplant schema and rules at 3 closed-loop sessions plus the
// plant_report report client over its 100k-object extent, in one database.
// Closed loop, because a query plus event workload that collapses would
// make any fixed open-loop rate unstable.
#include "plant_report.h"
#include "powerplant.h"
#include "workloads.h"

namespace e2e {

using reach::ReachDb;
using reach::Status;

int RunMixed(const Options& opt, RunResult* out) {
  constexpr int kPlantSessions = 3;
  constexpr int kReportSession = kPlantSessions;
  // Default phases: 2 s warm-up, 20 s closed loop.
  const double scale = opt.Scale(22.0);
  const std::string base = FreshDb(opt, "mixed");
  std::unique_ptr<PowerPlant> plant;
  std::unique_ptr<PlantReport> report;
  std::unique_ptr<ReachDb> db;
  Status st = RepeatSetup(
      [&] {
        db.reset();
        plant = std::make_unique<PowerPlant>(opt.seed);
        report = std::make_unique<PlantReport>(opt.seed);
        RemoveDb(base);
      },
      [&]() -> Status {
        REACH_ASSIGN_OR_RETURN(db, ReachDb::Open(base));
        REACH_RETURN_IF_ERROR(plant->Define(db.get()));
        REACH_RETURN_IF_ERROR(report->Define(db.get()));
        REACH_RETURN_IF_ERROR(plant->Load(db.get()));
        REACH_RETURN_IF_ERROR(report->Load(db.get()));
        return db->Checkpoint();
      },
      out);
  if (!st.ok()) return SetupFailed(st, out);

  auto sessions = OpenSessions(db.get(), kPlantSessions + 1);
  RequestFn fn = [&](int session, uint64_t seq, int64_t due_ns) {
    if (session == kReportSession) {
      return report->Report(*db, *sessions[session], seq);
    }
    return plant->Transaction(*sessions[session], session, kPlantSessions, seq,
                              due_ns);
  };
  report->WarmUp(*db, *sessions[kReportSession]);
  ReportPeakRss(out);
  RunClosedLoop(kPlantSessions + 1, 2.0 * scale, kWarmupSeq, fn);
  report->ResetQueryStats();

  LayerWindow window(opt.trace);
  window.Resume(db.get());
  auto per = RunClosedLoop(kPlantSessions + 1, 20.0 * scale, kClosedSeq, fn);
  window.Pause();
  db->Drain();
  plant->CheckTotals(db.get(), "end", out);
  report->Check("mixed", out);

  PhaseResult txns = MergeSessions(per, 0, kPlantSessions);
  PhaseResult reports =
      MergeSessions(per, kReportSession, kReportSession + 1);
  ReportCommits(txns, out);
  ReportThroughput(txns, out);
  ReportReactions(plant->reactions().Reactions(kClosedSeq, kEndSeq), out);
  ReportQueries(reports, out);
  ReportFailures({&txns, &reports}, out);
  WindowCounts counts;
  counts.txns = txns.attempted;
  counts.queries = reports.attempted;
  counts.query = &report->query_stats();
  counts.detached_lag_us = plant->reactions().DetachedLag(kClosedSeq, kEndSeq);
  window.Report(counts, out);
  sessions.clear();
  db.reset();
  RemoveDb(base);
  FinishRun(opt, out);
  return 0;
}

}  // namespace e2e
