#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "util/json.h"

namespace perfbench {

/// Thread budget of one benchmark process. The sweep pool (paper_smoke)
/// and the shard workers (islands4 / clusters4) never run at the same
/// time, and each is capped at `nproc`.
struct Budget {
    int nproc = 1;
    int sweep_threads = 1;  ///< analysis::SweepRunner threads (FigureContext::threads)
    int shard_threads = 1;  ///< net::Network::set_shard_threads
};

/// Everything one pass measured. A pass runs in its own child process
/// and ships this back to the parent process as JSON.
struct PassResult {
    double setup_s = 0.0;  ///< scenario build + Experiment construction (or registry + goldens)
    double wall_s = 0.0;   ///< the measured run, correctness checks excluded
    double user_s = 0.0;   ///< user CPU of the measured run (all threads)
    double sys_s = 0.0;    ///< system CPU of the measured run (all threads)
    double maxrss_mb = 0.0;
    int attempted = 0;
    int failed = 0;
    int unchecked = 0;  ///< operations whose conservation audit stood down
    std::vector<std::string> failures;
    /// Output digest per scenario cell, in cell order (the reference
    /// pass records them; measured passes are compared against them).
    std::vector<std::string> digests;
    /// Raw layer counters summed over the pass's cells. Empty when the
    /// workload's layers are not reachable from outside (paper_smoke).
    std::map<std::string, double> counts;
    std::vector<Span> spans;

    ezflow::util::Json to_json() const;
    static PassResult from_json(const ezflow::util::Json& json);
};

/// Workload scale: kFull is the benchmark; kTiny is the same shape at a
/// size the self-test can run in a second or two.
enum class Size { kFull, kTiny };

class Workload {
public:
    virtual ~Workload() = default;
    /// The stated input size the per-pass metrics refer to.
    virtual std::string input_size() const = 0;
    /// Operations one pass attempts (counted as failed if the pass dies).
    virtual int ops_per_pass() const = 0;
    /// Whether the measured passes are checked against a reference pass.
    virtual bool has_reference() const { return false; }
    /// Untimed serial run of the same inputs; records the digests.
    virtual PassResult reference() { return {}; }
    /// One measured pass. `reference` holds the reference pass's digests.
    virtual PassResult pass(bool traced, const std::vector<std::string>& reference) = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const Budget& budget, const std::string& goldens_dir,
                                        Size size = Size::kFull);

/// Per-layer metrics of one pass, derived from its counts and spans.
/// Counts a workload cannot reach from outside read -1.
std::map<std::string, double> layer_metrics(const PassResult& pass);

}  // namespace perfbench
