// The benches' one job step, scenario runner and checker.
//
// Every figure run and every ablation is an MPI job or a short list of
// steps on a fresh cluster. A Scenario is that description as data: its
// arms (each a ClusterConfig, a fault plan and an ordered list of steps),
// the scalars its report carries and the asserts that gate them. One
// runner executes the arms and fills the report; one checker evaluates the
// asserts, so a failing one makes the bench exit nonzero.
//
// Each arm's results land in a flat value map keyed "<arm>.<value>" (fleet
// totals at the end of the arm) and "<arm>.<step>.<value>" (one step):
//   seconds, ok, lost, failed       simulated time and op outcomes
//   bandwidth                       job steps: desired bytes / second
//   p50, p99, p999                  paced reads: exact latency (ns)
//   <ServerStats field>             the fleet sums scenario.cpp tables
//                                   (per step: its change over the step)
//   <client counter>, requests_sent summed over the arm's clients
//   replies_dropped, mailbox_residual, faults_injected, faults_dropped,
//   pages_rotted, pages_poisoned, residual_bad_pages, replication, and for
//   an observed arm phase_ops, phase_p99_{ns,coverage,queue_ns,dominant},
//   timeline_series and queue_peak (server 0's deepest queue); plus what
//   a kTask step or the arm's `finish` records.
// A scalar is a sum of values, optionally over a sum of values, over a
// divisor; a check compares one key to a bound or a multiple of another.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "mpiio/file.h"
#include "net/cost_model.h"
#include "net/fault.h"
#include "obs/timeline.h"
#include "pfs/cluster.h"
#include "sim/task.h"
#include "workloads/block3d.h"
#include "workloads/flash.h"
#include "workloads/tile.h"

namespace dtio::bench {

// ---- Jobs --------------------------------------------------------------------

/// One rank's file view: displacement, filetype, and the memtype of each
/// access.
struct RankView {
  std::int64_t disp = 0;
  types::Datatype filetype;
  types::Datatype memtype;
};

/// An MPI job: every rank opens `path`, sets its view, and issues `frames`
/// accesses of one memtype each, frame f at file offset f * bytes. A
/// collective job stops a rank at its first failure (the others would
/// wedge on it anyway); an independent one counts it and goes on.
struct Job {
  enum class Open {
    kOthers,  ///< ranks other than 0 open (rank 0 created it beforehand)
    kAll,     ///< every rank opens, rank 0 creating
    kNone,    ///< the files are open from an earlier job
  };
  std::string path = {};
  std::function<RankView(int rank, int nranks)> view = {};
  std::int64_t bytes = 0;  ///< desired bytes per rank per frame
  int frames = 1;
  mpiio::Method method = mpiio::Method::kDatatype;
  bool write = false;
  bool collective = true;
  Open open = Open::kOthers;
};

Job tile_job(const workloads::TileConfig& tile, int frames,
             mpiio::Method method = mpiio::Method::kDatatype);
Job flash_job(const workloads::FlashConfig& flash, mpiio::Method method);
Job block3d_job(const workloads::Block3dConfig& block, mpiio::Method method,
                bool write);

/// One figure point: `job` on a fresh cluster of `cfg` (one timing-only
/// client per rank) after rank 0 creates the file; rank 0's counters are
/// per frame. With `use_obs` the run carries a span collector of
/// `span_capacity` and reports its latency, and `trace_path`, when set,
/// receives its Chrome trace; `utilization` prints the servers' table.
obs::MethodReport measure(const net::ClusterConfig& cfg, const Job& job,
                          bool use_obs, std::size_t span_capacity,
                          const std::string& trace_path = "",
                          bool utilization = false);

// ---- Scenarios -----------------------------------------------------------------

using Values = std::map<std::string, double>;

/// Server `server` (every server when < 0) is down, or with `slowdown`
/// serves that many times slower, for `length` from `at` after its step
/// begins. A crashed server restarts with its caches cold.
struct Outage {
  int server = 0;
  SimTime at = 0;
  SimTime length = 0;
  double slowdown = 0;
};

/// One step of an arm; every step drains the cluster before the next.
/// Reads act on the file kWrite made.
struct Step {
  enum class Kind {
    kCreate,  ///< rank 0 creates `path`
    kJob,     ///< `job` over every rank
    kWrite,   ///< client 0 creates `path` and writes `count` chunks of
              ///< `bytes` back to back
    kRead,    ///< every client reads `count` times `bytes`, read i at
              ///< offset i * `stride`; with `pace`, client 0 alone, read i
              ///< issued at `start` + i * `pace` whatever the others do
    kFlush,   ///< settle every server cache to its store (host side)
    kTask,    ///< `task` on every client, rank r on client r
  };
  Kind kind = Kind::kJob;
  std::string name = {};  ///< keys the step's values; unnamed steps have none
  Job job = {};
  std::string path = {};
  std::int64_t bytes = 0;
  int count = 0;
  std::int64_t stride = 0;
  std::uint64_t fill_seed = 0;  ///< kWrite: Rng bytes; 0 fills with 0x5A
  SimTime start = 0;
  SimTime pace = 0;
  std::vector<Outage> outages = {};
  /// kTask: one rank's work on the file kWrite made; it may count into
  /// the step's values.
  std::function<sim::Task<void>(pfs::Client& c, int rank,
                                std::uint64_t handle, Values& out)>
      task = {};
};

/// One cluster run of a scenario.
struct Arm {
  std::string name = {};
  net::ClusterConfig config = {};
  bool data = false;  ///< clients move payload bytes; else timing only
  /// A nonzero salt attaches a fault plan seeded from the run seed and the
  /// salt: `wire` faults on client<->server links, `disks` per server.
  std::uint64_t fault_salt = 0;
  net::FaultSpec wire = {};
  std::vector<std::pair<int, net::DiskFaultSpec>> disks = {};
  /// With `obs`, the arm runs observed: `trace`, when set, receives its
  /// Chrome trace, and its `phase_op` ops are phase-attributed into the
  /// report along with its timeline.
  std::optional<obs::ObsConfig> obs = {};
  std::string phase_op = {};
  std::string trace = {};
  std::vector<Step> steps = {};
  /// Values of the arm's own, read off the drained cluster.
  std::function<void(pfs::Cluster& cluster, Values& out)> finish = {};
};

/// A report scalar: sum(num) / sum(den) / div. An empty `den` divides by
/// 1; a zero sum(den), after raising it to `floor`, yields 0. A hidden
/// one is echoed and checked but kept out of the report.
struct Scalar {
  std::string key = {};
  std::vector<std::string> num = {};
  std::vector<std::string> den = {};
  double div = 1;
  double floor = 0;
  bool hidden = false;
};

/// An assert: value(key) op bound, or op bound * value(times) when
/// `times` is set. `op` is one of == < <= > >=.
struct Check {
  std::string key = {};
  std::string op = {};
  double bound = 0;
  std::string times = {};
};

struct Scenario {
  std::string name = {};   ///< --scenario=NAME
  std::string title = {};  ///< printed above its scalars
  std::string note = {};   ///< printed below them, when set
  std::vector<Arm> arms = {};
  std::vector<Scalar> scalars = {};
  std::vector<Check> checks = {};
};

/// Runs every arm in order, adds the scalars to `report` and echoes them,
/// then checks `s.checks` against the scalars and the arms' values. False
/// when a check fails or a scalar reads a value no arm recorded.
bool run_scenario(const Scenario& s, obs::RunReport& report);

/// Evaluates `checks` against `values`; prints each failure to stderr.
bool check(const std::vector<Check>& checks, const Values& values);

/// The scenario named by --scenario=NAME among `all` (null when the flag
/// is absent); exits with a list of the names when none matches.
const Scenario* pick_scenario(int argc, char** argv,
                              const std::vector<Scenario>& all);

}  // namespace dtio::bench
