// plant_report: the larger-than-cache, read-heavy case. One report client
// cycles three extent-scan queries over 100k objects while one writer
// updates an attribute no query reads; no events or rules run.
#include "plant_report.h"

#include <algorithm>

#include "trace.h"
#include "workloads.h"

namespace e2e {

using reach::ClassBuilder;
using reach::Oid;
using reach::ReachDb;
using reach::Session;
using reach::Status;
using reach::Value;
using reach::ValueType;

namespace {

constexpr int kLoadBatch = 1000;
constexpr int kWrittenPerTxn = 4;
/// Restarts of a writer or report before the operation counts as failed.
constexpr int kMaxAttempts = 50;
/// Pads each object to ~250 bytes serialized.
const std::string kNote(110, 'n');

}  // namespace

PlantReport::PlantReport(uint64_t seed) : seed_(seed) {
  Rng rng(Mix(seed, 0xDA7A));
  bucket_.resize(kObjects);
  reading_.resize(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    bucket_[i] = rng.Range(0, kBuckets);
    reading_[i] = rng.Range(0, 1000);
    count_by_bucket_[bucket_[i]] += 1;
    seq_sum_by_bucket_[bucket_[i]] += i;
    if (bucket_[i] < 50) ++count_below_50_;
    if (bucket_[i] >= 90) top_readings_.push_back(reading_[i]);
  }
  std::sort(top_readings_.begin(), top_readings_.end());
}

Status PlantReport::Define(ReachDb* db) {
  return db->RegisterClass(
      ClassBuilder("Measurement")
          .Attribute("seq", ValueType::kInt, Value(0))
          .Attribute("station", ValueType::kInt, Value(0))
          .Attribute("bucket", ValueType::kInt, Value(0))
          .Attribute("reading", ValueType::kInt, Value(0))
          .Attribute("value", ValueType::kDouble, Value(0.0))
          .Attribute("ack", ValueType::kInt, Value(0))
          .Attribute("note", ValueType::kString, Value("")));
}

Status PlantReport::Load(ReachDb* db) {
  Session s(db->database());
  oids_.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    if (i % kLoadBatch == 0) REACH_RETURN_IF_ERROR(s.Begin());
    REACH_ASSIGN_OR_RETURN(
        Oid oid, s.PersistNew("Measurement",
                              {{"seq", Value(i)},
                               {"station", Value(i % 64)},
                               {"bucket", Value(bucket_[i])},
                               {"reading", Value(reading_[i])},
                               {"value", Value(0.5 * reading_[i])},
                               {"note", Value(kNote)}}));
    oids_.push_back(oid);
    if (i % kLoadBatch == kLoadBatch - 1) REACH_RETURN_IF_ERROR(s.Commit());
  }
  return Status::OK();
}

Outcome PlantReport::Report(ReachDb& db, Session& s, uint64_t seq) {
  Rng rng(Mix(seed_, seq));
  std::string q;
  int64_t want_rows = 1;
  int64_t want = 0;  // count(*) or the sum of the returned seq values
  switch (reports_++ % 3) {
    case 0: {  // 1% filter
      int64_t k = rng.Range(0, kBuckets);
      q = "select seq from Measurement where bucket == " + std::to_string(k);
      want_rows = count_by_bucket_[k];
      want = seq_sum_by_bucket_[k];
      break;
    }
    case 1:  // count(*) over 50%
      q = "select count(*) from Measurement where bucket < 50";
      want = count_below_50_;
      break;
    default: {  // the second conjunct is arithmetic: residual evaluation
      // T stays well below 2 * max(reading), so some object matches: over
      // an empty selection count(*) returns no row instead of a row of 0.
      int64_t t = rng.Range(0, 1800);
      q = "select count(*) from Measurement where bucket >= 90 && "
          "reading * 2 > " +
          std::to_string(t);
      want = top_readings_.end() -
             std::upper_bound(top_readings_.begin(), top_readings_.end(),
                              t / 2);
      break;
    }
  }
  reach::Result<reach::QueryResult> r = Status::Aborted("not run");
  int64_t call = 0;
  for (int attempt = 0; attempt < kMaxAttempts && !r.ok(); ++attempt) {
    trace::Span root("report", seq);
    if (!Begin(s).ok()) return Outcome::kFailed;
    call = NowNs();
    r = Query(db, s, q);
    call = NowNs() - call;
    if (!r.ok()) {
      (void)Abort(s);
      // A writer's lock try registers it as a waiter for an instant; a
      // report worker that checks for deadlock just then is refused as
      // the victim. Run the report again.
      if (!r.status().IsAborted()) return Outcome::kFailed;
    } else if (!Commit(s, "txn.commit.query").ok()) {
      return Outcome::kFailed;
    }
  }
  if (!r.ok()) return Outcome::kFailed;
  int64_t got = 0;
  for (const auto& row : r->rows) got += row.values.at(0).as_int();
  ++answers_;
  if (static_cast<int64_t>(r->rows.size()) != want_rows || got != want) {
    if (wrong_++ == 0) {
      first_wrong_ = q + ": rows=" + std::to_string(r->rows.size()) +
                     " value=" + std::to_string(got) +
                     " want rows=" + std::to_string(want_rows) +
                     " value=" + std::to_string(want);
    }
  }
  stats_.exec_ms.Add(static_cast<double>(r->exec_ns) / 1e6);
  stats_.plan_parse_ms +=
      static_cast<double>(call - static_cast<int64_t>(r->exec_ns)) / 1e6;
  stats_.scanned += r->scanned;
  stats_.returned += r->rows.size();
  stats_.morsels += r->morsels;
  stats_.workers += r->workers;
  ++stats_.committed;
  return Outcome::kCommitted;
}

void PlantReport::WarmUp(ReachDb& db, Session& s) {
  for (uint64_t seq = kWarmupSeq; seq < kWarmupSeq + 3; ++seq) {
    Report(db, s, seq);
  }
  ResetQueryStats();
}

Outcome PlantReport::Write(Session& s, uint64_t seq) {
  Rng rng(Mix(seed_, seq));
  std::vector<Oid> targets;
  while (targets.size() < kWrittenPerTxn) {
    Oid oid = oids_[rng.Range(0, kObjects)];
    if (std::find(targets.begin(), targets.end(), oid) == targets.end()) {
      targets.push_back(oid);
    }
  }
  // The writer never waits while it holds a lock: it waits for one target
  // with nothing else held, then only tries the others, and restarts with
  // a refused one as the target it waits for. A report's workers may wait
  // for the writer, but the writer never waits for them in turn, so no
  // one waits in a cycle.
  size_t wait_for = 0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    trace::Span root("request", seq);
    Status st = Begin(s);
    if (st.ok()) st = LockExclusive(s, targets[wait_for]);
    size_t busy = wait_for;
    for (size_t i = 0; st.ok() && i < targets.size(); ++i) {
      if (i == wait_for) continue;
      // TimedOut when the lock is held; Aborted when a report's worker
      // already waits for a lock this attempt holds.
      st = LockExclusive(s, targets[i], /*timeout_us=*/0);
      if (!st.ok()) busy = i;
    }
    for (size_t i = 0; st.ok() && i < targets.size(); ++i) {
      st = SetAttr(s, targets[i], "ack", Value(static_cast<int64_t>(seq)));
    }
    if (st.ok()) st = Commit(s);
    if (st.ok()) return Outcome::kCommitted;
    (void)Abort(s);
    if (busy == wait_for) break;
    ++lock_restarts_;
    wait_for = busy;
  }
  return Outcome::kFailed;
}

void PlantReport::Check(const std::string& prefix, RunResult* out) const {
  out->Require(prefix + ".query_answers", answers_ > 0 && wrong_ == 0,
               std::to_string(answers_) + " answers, " +
                   std::to_string(wrong_) + " wrong" +
                   (first_wrong_.empty() ? "" : "; first: " + first_wrong_));
}

// -- The plant_report workload -----------------------------------------------

int RunPlantReport(const Options& opt, RunResult* out) {
  // Default phase: 30 s closed loop (report client + writer).
  const double scale = opt.Scale(30.0);
  const std::string base = FreshDb(opt, "plant_report");
  std::unique_ptr<PlantReport> plant;
  std::unique_ptr<ReachDb> db;
  Status st = RepeatSetup(
      [&] {
        db.reset();
        plant = std::make_unique<PlantReport>(opt.seed);
        RemoveDb(base);
      },
      [&]() -> Status {
        REACH_ASSIGN_OR_RETURN(db, ReachDb::Open(base));
        REACH_RETURN_IF_ERROR(plant->Define(db.get()));
        REACH_RETURN_IF_ERROR(plant->Load(db.get()));
        return db->Checkpoint();
      },
      out);
  if (!st.ok()) return SetupFailed(st, out);

  // Session 0 is the report client, session 1 the writer.
  auto sessions = OpenSessions(db.get(), 2);
  RequestFn fn = [&](int session, uint64_t seq, int64_t) {
    return session == 0 ? plant->Report(*db, *sessions[0], seq)
                        : plant->Write(*sessions[1], seq);
  };
  plant->WarmUp(*db, *sessions[0]);
  ReportPeakRss(out);

  LayerWindow window(opt.trace);
  window.Resume(db.get());
  auto per = RunClosedLoop(2, 30.0 * scale, kClosedSeq, fn);
  window.Pause();
  PhaseResult reports = MergeSessions(per, 0, 1);
  PhaseResult writes = MergeSessions(per, 1, 2);
  PhaseResult all = MergeSessions(per, 0, 2);
  plant->Check("plant_report", out);

  ReportCommits(writes, out);
  ReportThroughput(all, out);
  ReportQueries(reports, out);
  ReportFailures({&all}, out);
  WindowCounts counts;
  counts.txns = writes.attempted;
  counts.queries = reports.attempted;
  counts.query = &plant->query_stats();
  counts.lock_restarts = plant->lock_restarts();
  window.Report(counts, out);
  sessions.clear();
  db.reset();
  RemoveDb(base);
  FinishRun(opt, out);
  return 0;
}

}  // namespace e2e
