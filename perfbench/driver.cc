/**
 * @file
 * perfbench_driver — one iteration of one benchmark workload.
 *
 * Builds the machine, serves one open-loop workload through the
 * library's serve harness (`runServe`, or `runServeTenants` for a
 * tenant mix), checks the outputs, and prints one JSON object on
 * stdout holding three families of numbers:
 *
 *   host   host wall time of set-up and of the serve call, and the
 *          process's peak RSS (noisy; the runner takes medians)
 *   sim    modelled serving results in simulated time (deterministic),
 *          with the sums the runner pools across sub-runs in "pool"
 *   count  deterministic work counters from System::stats(),
 *          EventQueue::executed() and the serve stats
 *
 * The tenant workload always runs with tracing on and ends with a blame
 * report (`computeBlame` plus its JSON, written to a file next to this
 * executable and removed again), as a user of blame pays for both.
 *
 * With --spans it also records its own spans around each call (build,
 * serve, blame, the correctness check, and replays of the trace and
 * load generators) and reports their self times. The workload itself
 * is given entirely by flags; the named workloads live in
 * perfbench/workloads.json and perfbench/run.py turns them into flags.
 * Exit code 1 means a correctness check failed, 2 a usage error. The
 * library asserts itself that every issued query completes (runServe,
 * runServeTenants), so a lost query aborts the process; run.py counts
 * that as a failed check too.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "perfbench/metrics.h"
#include "src/core/system.h"
#include "src/embedding/synthetic_values.h"
#include "src/load/load_gen.h"
#include "src/obs/critical_path.h"
#include "src/obs/tracer.h"
#include "src/qos/tenant_serve.h"
#include "src/reco/model_runner.h"
#include "src/reco/serving.h"
#include "src/trace/trace_gen.h"

using namespace recssd;
using perfbench::SpanRecorder;

namespace
{

struct Options
{
    std::string workload = "unnamed";
    std::uint64_t seed = 1;
    bool tenants = false;  ///< serve a tenant mix (runServeTenants)
    unsigned numSsds = 1;  ///< row-range sharded when more than one
    TraceKind traceKind = TraceKind::Uniform;
    double k = 1.0;
    bool partition = false;
    std::uint64_t ssdCacheMb = 0;
    double qps = 20.0;
    unsigned batch = 16;
    unsigned queries = 200;
    double limitMs = 100.0;
    std::string tenantSpec;
    bool spans = false;  ///< traced run: benchmark spans + replays
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "[--tenants SPEC] [--num-ssds N] "
                 "[--trace-kind uniform|k] [--k V] [--partition] "
                 "[--ssd-cache-mb N] [--qps R] [--batch B] [--queries N] "
                 "[--limit-ms L] [--spans]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage("missing value");
        return argv[++i];
    };
    auto number = [&](int &i) -> double {
        std::string v = value(i);
        char *end = nullptr;
        double d = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || !(d >= 0.0))
            usage(("bad number: " + v).c_str());
        return d;
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--workload") {
            o.workload = value(i);
        } else if (a == "--seed") {
            std::string v = value(i);
            char *end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage(("bad seed: " + v).c_str());
        } else if (a == "--tenants") {
            o.tenants = true;
            o.tenantSpec = value(i);
        } else if (a == "--num-ssds") {
            o.numSsds = static_cast<unsigned>(number(i));
        } else if (a == "--trace-kind") {
            std::string t = value(i);
            if (t == "uniform")
                o.traceKind = TraceKind::Uniform;
            else if (t == "k")
                o.traceKind = TraceKind::LocalityK;
            else
                usage("bad --trace-kind");
        } else if (a == "--k") {
            o.k = number(i);
        } else if (a == "--partition") {
            o.partition = true;
        } else if (a == "--ssd-cache-mb") {
            o.ssdCacheMb = static_cast<std::uint64_t>(number(i));
        } else if (a == "--qps") {
            o.qps = number(i);
        } else if (a == "--batch") {
            o.batch = static_cast<unsigned>(number(i));
        } else if (a == "--queries") {
            o.queries = static_cast<unsigned>(number(i));
        } else if (a == "--limit-ms") {
            o.limitMs = number(i);
        } else if (a == "--spans") {
            o.spans = true;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (o.numSsds == 0 || o.batch == 0 || o.queries == 0 || o.qps <= 0.0 ||
        o.limitMs <= 0.0)
        usage("counts and rates must be positive");
    return o;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Times one call and records it as a span when spans are on. */
template <typename F>
double
timed(SpanRecorder &rec, const char *name, F &&f)
{
    int id = rec.begin(name);
    auto t0 = std::chrono::steady_clock::now();
    f();
    double s = secondsSince(t0);
    rec.end(id);
    return s;
}

/** One flat JSON object, numbers printed with all their digits. */
class JsonObject
{
  public:
    void num(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        raw(key, buf);
    }
    void str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        q += jsonEscape(v);
        q += '"';
        raw(key, q);
    }
    void raw(const std::string &key, const std::string &json)
    {
        body_ += body_.empty() ? "" : ", ";
        body_ += "\"" + key + "\": " + json;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Every registered stat, sampled once after the serve run. */
class StatView
{
  public:
    explicit StatView(System &sys) : n_(sys.numSsds())
    {
        const StatRegistry &reg = sys.stats();
        std::vector<double> v = reg.sample();
        const auto &names = reg.names();
        for (std::size_t i = 0; i < names.size(); ++i)
            values_[names[i]] = v[i];
    }

    double at(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** Per-device stat summed over devices (unprefixed on one). */
    double sum(const std::string &name) const
    {
        if (n_ == 1)
            return at(name);
        double s = 0.0;
        for (unsigned d = 0; d < n_; ++d)
            s += at("ssd" + std::to_string(d) + "." + name);
        return s;
    }

    /** Per-device stat, maximum over devices. */
    double max(const std::string &name) const
    {
        if (n_ == 1)
            return at(name);
        double m = 0.0;
        for (unsigned d = 0; d < n_; ++d)
            m = std::max(m, at("ssd" + std::to_string(d) + "." + name));
        return m;
    }

  private:
    unsigned n_;
    std::map<std::string, double> values_;
};

SystemConfig
systemConfig(const Options &o)
{
    SystemConfig cfg;
    cfg.ssd.sls.embeddingCacheBytes = o.ssdCacheMb * 1024 * 1024;
    cfg.shard.numShards = o.numSsds;
    cfg.shard.policy = ShardPolicy::RowRange;
    // The serve-mode queue setup of recssd_sim.
    cfg.host.ioQueues = 4;
    cfg.ssd.nvme.numQueues = 4;
    cfg.host.balancedQueueGrants = true;
    return cfg;
}

RunnerOptions
runnerOptions(const Options &o)
{
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.staticPartition = o.partition;
    opt.trace.kind = o.traceKind;
    opt.trace.k = o.k;
    opt.seed = o.seed;
    return opt;
}

BatchPolicy
batchPolicy(const Options &o)
{
    BatchPolicy b;
    b.maxBatchSamples = 4 * o.batch;
    b.maxWait = 500 * usec;
    b.maxInFlight = 4;
    return b;
}

/** The percentile rule: p95 is reported only with at least 10 samples
 *  beyond it, i.e. at least 200 measured queries. */
void
requireP95(unsigned measured)
{
    if (!perfbench::percentileSupported(measured, 0.95))
        usage("p95 needs at least 200 measured queries");
}

Tick
limitTicks(const Options &o)
{
    return static_cast<Tick>(o.limitMs * static_cast<double>(msec));
}

unsigned
warmupOf(unsigned queries)
{
    return std::max(1u, queries / 10);
}

/**
 * Replays the trace draws of a served run: the runner makes one
 * `nextBatch(size, lookups)` per table for each fused batch it
 * dispatches, with its own specs and seeds. The served run reports how
 * many batches it fused; their `samples` are spread evenly over them.
 * `ids drawn` is therefore samples x lookups, fixed by the
 * configuration. @return ids drawn.
 */
std::uint64_t
replayTrace(const ModelConfig &model, const RunnerOptions &opt,
            std::uint64_t batches, std::uint64_t samples)
{
    std::vector<std::unique_ptr<TraceGenerator>> gens;
    std::vector<unsigned> lookups;
    std::uint32_t id = 0;
    for (const TableGroup &g : model.tables) {
        for (unsigned i = 0; i < g.count; ++i, ++id) {
            TraceSpec spec = opt.trace;
            spec.universe = g.rows;
            spec.seed = opt.seed * 7919 + id * 104729 + 1;
            gens.push_back(std::make_unique<TraceGenerator>(spec));
            lookups.push_back(g.lookups);
        }
    }
    std::uint64_t drawn = 0;
    for (std::uint64_t b = 0; b < batches; ++b) {
        const auto size = static_cast<unsigned>(
            samples / batches + (b < samples % batches ? 1 : 0));
        for (std::size_t t = 0; t < gens.size(); ++t) {
            auto ids = gens[t]->nextBatch(size, lookups[t]);
            for (const auto &row : ids)
                drawn += row.size();
        }
    }
    return drawn;
}

/**
 * Post-run probe: one SLS op per SSD table through the runner's full
 * backend path (partition, SSD cache, shards), compared bit for bit
 * with `synthetic::expectedSls`. @return mismatching tables.
 */
unsigned
probeSls(ModelRunner &runner, const Options &o)
{
    unsigned bad = 0;
    std::vector<EmbeddingTableDesc> descs = runner.ssdTableDescs();
    for (const EmbeddingTableDesc &desc : descs) {
        TraceSpec spec = runner.options().trace;
        spec.universe = desc.rows;
        spec.seed = o.seed ^ (0x9b0bULL + desc.id);
        TraceGenerator gen(spec);
        SlsOp op;
        op.table = &desc;
        op.indices = gen.nextBatch(4, 16);
        SlsResult got;
        bool done = false;
        runner.shardedBackend()->run(op, [&](SlsResult r) {
            got = std::move(r);
            done = true;
        });
        runner.sys().run();
        SlsResult want = synthetic::expectedSls(desc, op.indices);
        if (!done || got.size() != want.size() ||
            std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(float)) != 0)
            ++bad;
    }
    return bad;
}

/** A tenant's load seed, mixed as runServeTenants mixes it
 *  (src/qos/tenant_serve.cc), so the load replay draws its arrivals. */
std::uint64_t
tenantSeed(std::uint64_t seed, unsigned tenant, std::uint64_t salt)
{
    return seed * 0x9e3779b97f4a7c15ull +
           (static_cast<std::uint64_t>(tenant) + 1) * 0xbf58476d1ce4e5b9ull +
           salt;
}

/** Counters of the tenant workload read as zero on the others, so
 *  every workload reports the same per-layer names. */
void
zeroTenantCounts(JsonObject &count)
{
    for (const char *name :
         {"qos.victim.reservation_grants", "qos.victim.weight_grants",
          "qos.victim.queue_sim_ms", "qos.antagonist.limit_deferrals",
          "qos.update_deferrals", "update.submitted", "update.applied",
          "update.flushes", "obs.spans", "obs.blame_requests"})
        count.num(name, 0.0);
}

/** Counters every workload reports, read after the serve run. */
void
deviceCounts(JsonObject &count, System &sys, double queriesTotal)
{
    StatView st(sys);
    double reads = st.sum("flash.page_reads");
    double hostWrites = st.sum("ftl.host_writes");
    double flashWrites = st.sum("flash.page_writes");
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheLookups = 0;
    for (unsigned d = 0; d < sys.numSsds(); ++d) {
        if (const EmbeddingCache *c = sys.ssd(d).slsEngine().embeddingCache()) {
            cacheHits += c->hits();
            cacheLookups += c->hits() + c->misses();
        }
    }
    count.num("host.cores_busy_sim_ms", st.at("host.cores.busy_us") / 1e3);
    count.num("host.driver_commands", st.sum("driver.commands"));
    count.num("nvme.commands", st.sum("nvme.commands"));
    count.num("nvme.pcie_bytes", st.sum("pcie.bytes_moved"));
    count.num("nvme.pcie_busy_sim_ms", st.sum("pcie.busy_us") / 1e3);
    count.num("ftl.cpu_busy_sim_ms", st.max("ftl.cpu.busy_us") / 1e3);
    count.num("ftl.host_writes", hostWrites);
    count.num("ftl.write_amp", hostWrites > 0 ? flashWrites / hostWrites : 0);
    count.num("ftl.gc_runs", st.sum("ftl.gc_runs"));
    count.num("flash.page_reads", reads);
    count.num("flash.page_writes", flashWrites);
    count.num("flash.reads_per_query", reads / queriesTotal);
    count.num("ndp.sls_requests", st.sum("sls.requests"));
    count.num("ndp.flash_pages_read", st.sum("sls.flash_pages_read"));
    count.num("ndp.embed_cache_hits", static_cast<double>(cacheHits));
    count.num("ndp.embed_cache_hit_frac",
              cacheLookups ? static_cast<double>(cacheHits) /
                                 static_cast<double>(cacheLookups)
                           : 0.0);
    count.num("common.events", static_cast<double>(sys.eq().executed()));
    count.num("common.events_per_query",
              static_cast<double>(sys.eq().executed()) / queriesTotal);
}

struct Outcome
{
    JsonObject host;
    JsonObject sim;
    /** Inputs the runner sums across sub-runs (attainment, qps). */
    JsonObject pool;
    JsonObject count;
    JsonObject check;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
};

void
fail(Outcome &out, const std::string &what, double got, double want)
{
    out.correct = false;
    std::fprintf(stderr,
                 "perfbench_driver: check failed: %s (%.17g vs %.17g)\n",
                 what.c_str(), got, want);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The machine one iteration serves on. */
struct Machine
{
    std::unique_ptr<System> sys;
    std::vector<std::unique_ptr<ModelRunner>> runners;
};

/** Set-up repeats until it has taken this long in total (at least
 *  once), so its median rests on this much work on every workload. */
constexpr double setupBudgetS = 0.25;

/**
 * Set-up: build the System, then one ModelRunner per model (table
 * install plus partition profiling), repeated until `setupBudgetS` has
 * elapsed. Every repetition but the last is torn down; `setup_s` and
 * its parts are medians over the repetitions.
 */
Machine
buildMachine(const Options &o, const std::vector<ModelConfig> &models,
             SpanRecorder &rec, Outcome &out)
{
    std::vector<double> sysS;
    std::vector<double> runnerS;
    std::vector<double> totalS;
    Machine m;
    double elapsed = 0.0;
    while (elapsed < setupBudgetS) {
        // Runners hold references into their System: drop them first.
        m.runners.clear();
        m.sys.reset();
        int setup = rec.begin("setup");
        sysS.push_back(timed(rec, "system_build", [&] {
            m.sys = std::make_unique<System>(systemConfig(o));
        }));
        runnerS.push_back(timed(rec, "runner_build", [&] {
            for (const ModelConfig &model : models)
                m.runners.push_back(std::make_unique<ModelRunner>(
                    *m.sys, model, runnerOptions(o)));
        }));
        rec.end(setup);
        totalS.push_back(sysS.back() + runnerS.back());
        elapsed += totalS.back();
    }
    out.host.num("setup_s", median(totalS));
    out.host.num("core.system_build_s", median(sysS));
    out.host.num("reco.runner_build_s", median(runnerS));
    return m;
}

/** The end-to-end sim metrics of one sub-run, plus the sums the
 *  runner pools across sub-runs. */
void
simMetrics(Outcome &out, double p50Us, double p95Us, std::uint64_t issued,
           std::uint64_t within, std::uint64_t degraded,
           double qpsQueries, double achievedQps)
{
    const double attain =
        perfbench::sloAttainment(issued, within, degraded);
    out.sim.num("sim_p50_ms", p50Us / 1e3);
    out.sim.num("sim_p95_ms", p95Us / 1e3);
    out.sim.num("sim_slo_attainment", attain);
    out.sim.num("sim_qps", achievedQps);
    out.pool.num("issued", static_cast<double>(issued));
    out.pool.num("met", std::round(attain * static_cast<double>(issued)));
    out.pool.num("qps_queries", qpsQueries);
    out.pool.num("qps_span_s",
                 achievedQps > 0 ? qpsQueries / achievedQps : 0.0);
    out.pool.num("attempted", static_cast<double>(out.attempted));
    out.pool.num("failed", static_cast<double>(out.failed));
}

/** Single-stream serving: workloads locality_cached, sharded_uniform. */
void
runServeWorkload(const Options &o, SpanRecorder &rec, Outcome &out)
{
    requireP95(o.queries);
    // The single-stream workloads serve the paper's RM1.
    const ModelConfig &model = modelByName("RM1");
    Machine m = buildMachine(o, {model}, rec, out);
    ModelRunner &runner = *m.runners.front();
    System &sys = *m.sys;

    ServeConfig scfg;
    scfg.arrivals.process = ArrivalProcess::Poisson;
    scfg.arrivals.qps = o.qps;
    scfg.shape.minBatch = o.batch;
    scfg.shape.maxBatch = o.batch;
    scfg.batching = batchPolicy(o);
    scfg.queries = o.queries;
    scfg.warmupQueries = warmupOf(o.queries);
    scfg.latencySlo = limitTicks(o);
    scfg.seed = o.seed;
    const unsigned total = scfg.queries + scfg.warmupQueries;

    ServeStats s;
    int wall = rec.begin("wall");
    double serve = timed(rec, "serve", [&] { s = runServe(runner, scfg); });
    rec.end(wall);
    out.host.num("wall_s", serve);

    int check = rec.begin("check");
    out.attempted = o.queries;
    out.failed = (o.queries - std::min(o.queries, s.completedQueries)) +
                 s.degradedQueries;
    simMetrics(out, s.p50Us, s.p95Us, o.queries,
               static_cast<std::uint64_t>(
                   std::llround(s.sloAttainment * s.completedQueries)),
               s.degradedQueries, s.completedQueries, s.achievedQps);

    deviceCounts(out.count, sys, total);
    out.count.num("load.arrivals", total);
    out.count.num("reco.fused_batches",
                  static_cast<double>(s.batchesDispatched));
    out.count.num("reco.avg_batch_samples", s.avgCoalescedSamples);
    out.count.num("reco.max_sched_depth", s.maxSchedulerDepth);
    out.count.num("reco.queue_wait_sim_ms", s.meanQueueUs / 1e3);
    out.count.num("reco.service_sim_ms", s.meanServiceUs / 1e3);
    out.count.num("cache.host_served_frac", s.hostServedFraction);
    double p95max = 0.0;
    double p95min = s.perDevice.empty() ? 0.0 : 1e300;
    for (const auto &d : s.perDevice) {
        p95max = std::max(p95max, d.subOpP95Us / 1e3);
        p95min = std::min(p95min, d.subOpP95Us / 1e3);
    }
    out.count.num("shard.scattered_ops", static_cast<double>(s.scatteredOps));
    out.count.num("shard.subop_p95_sim_ms_max", p95max);
    out.count.num("shard.subop_p95_sim_ms_min", p95min);
    zeroTenantCounts(out.count);

    // Correctness: every issued query completed, nothing was written,
    // and the served sums are exact.
    out.check.num("queries_issued", o.queries);
    out.check.num("queries_completed", s.completedQueries);
    if (s.completedQueries != o.queries)
        fail(out, "completed queries", s.completedQueries, o.queries);
    if (s.update.submitted != s.update.applied)
        fail(out, "updates applied", static_cast<double>(s.update.applied),
             static_cast<double>(s.update.submitted));
    unsigned bad = probeSls(runner, o);
    out.check.num("sls_probe_mismatches", bad);
    if (bad)
        fail(out, "SLS probe mismatching tables", bad, 0);
    rec.end(check);

    if (o.spans) {
        std::uint64_t drawn = 0;
        timed(rec, "trace_replay", [&] {
            drawn = replayTrace(model, runnerOptions(o),
                                s.batchesDispatched,
                                std::uint64_t{total} * o.batch);
        });
        out.count.num("trace.ids_drawn", static_cast<double>(drawn));
        timed(rec, "load_replay", [&] {
            LoadGenerator gen(scfg.arrivals, scfg.shape, scfg.seed);
            if (gen.schedule(total).size() != total)
                fail(out, "load replay", 0, total);
        });
    }
}

/** The tenant mix with blame: workload tenants_rw_blame. */
void
runTenantWorkload(const Options &o, SpanRecorder &rec, Outcome &out)
{
    TenantServeConfig tcfg;
    tcfg.tenants = TenantSet::parse(o.tenantSpec);
    if (tcfg.tenants.size() != 2)
        usage("the tenant workload takes a victim and an antagonist");
    if (tcfg.tenants.tenants[0].model != tcfg.tenants.tenants[1].model)
        usage("the tenants must serve the same model");
    for (const TenantSpec &t : tcfg.tenants.tenants)
        if (t.shape.minBatch != t.shape.maxBatch)
            usage("tenant batches must have a fixed size");
    const TenantSpec &vspec = tcfg.tenants.tenants[0];
    if (vspec.slo != limitTicks(o))
        usage("the victim's slo must equal --limit-ms");
    tcfg.qos.policy = QosPolicy::Dmclock;
    tcfg.qos.window = 8;
    tcfg.batching = batchPolicy(o);
    tcfg.defaultQueries = o.queries;
    tcfg.warmupQueries = warmupOf(o.queries);
    tcfg.seed = o.seed;
    auto queriesOf = [&](const TenantSpec &t) {
        return t.queries ? t.queries : tcfg.defaultQueries;
    };
    requireP95(queriesOf(vspec));

    // runServeTenants builds the runner of the tenants' one model on
    // the System it is handed. Set-up times the same build on replicas,
    // which are dropped so the served System gets its tables once.
    const ModelConfig &model = modelByName(vspec.model);
    buildMachine(o, {model}, rec, out);
    System sys(systemConfig(o));
    sys.enableTracing();

    TenantServeStats ts;
    BlameReport report;
    int wall = rec.begin("wall");
    double serve = timed(rec, "serve", [&] {
        ts = runServeTenants(sys, runnerOptions(o), tcfg);
    });
    // The blame JSON goes next to this executable, inside the build
    // directory, and is removed once written.
    const std::filesystem::path blamePath =
        std::filesystem::read_symlink("/proc/self/exe")
            .replace_filename("blame-" + std::to_string(getpid()) + ".json");
    double blameS = timed(rec, "blame", [&] {
        report = computeBlame(sys.tracer());
        std::ofstream os(blamePath);
        report.writeJson(os);
        if (!os)
            fail(out, "blame JSON written", 0, 1);
    });
    std::filesystem::remove(blamePath);
    rec.end(wall);
    out.host.num("wall_s", serve + blameS);

    int check = rec.begin("check");
    std::uint64_t issued = 0;
    std::uint64_t total = 0;
    std::uint64_t missing = 0;
    std::uint64_t degraded = 0;
    std::uint64_t updSubmitted = 0;
    std::uint64_t updApplied = 0;
    std::uint64_t updFlushes = 0;
    std::uint64_t updDeferrals = 0;
    for (std::size_t t = 0; t < ts.perTenant.size(); ++t) {
        const auto &pt = ts.perTenant[t];
        const unsigned want = queriesOf(tcfg.tenants.tenants[t]);
        issued += want;
        total += want + tcfg.warmupQueries;
        missing += want - std::min(want, pt.completedQueries);
        degraded += pt.degradedQueries;
        updSubmitted += pt.updatesSubmitted;
        updApplied += pt.updatesApplied;
        updFlushes += pt.updateFlushes;
        updDeferrals += pt.updateAdmissionDeferrals;
        out.check.num("queries_issued." + pt.name, want);
        out.check.num("queries_completed." + pt.name, pt.completedQueries);
        if (pt.completedQueries != want)
            fail(out, "completed queries of " + pt.name,
                 pt.completedQueries, want);
    }
    out.check.num("updates_submitted", static_cast<double>(updSubmitted));
    out.check.num("updates_applied", static_cast<double>(updApplied));
    if (updApplied != updSubmitted)
        fail(out, "updates applied", static_cast<double>(updApplied),
             static_cast<double>(updSubmitted));
    out.attempted = issued + updSubmitted;
    out.failed = missing + degraded +
                 (updSubmitted - std::min(updSubmitted, updApplied));

    const auto &victim = ts.perTenant.at(0);
    const auto &ant = ts.perTenant.at(1);
    simMetrics(out, victim.p50Us, victim.p95Us, queriesOf(vspec),
               static_cast<std::uint64_t>(std::llround(
                   victim.sloAttainment * victim.completedQueries)),
               victim.degradedQueries, ts.completedQueries, ts.achievedQps);

    deviceCounts(out.count, sys, static_cast<double>(total));
    out.count.num("load.arrivals", static_cast<double>(total));
    out.count.num("reco.fused_batches",
                  static_cast<double>(ts.batchesDispatched));
    // Not in the tenant serve stats; the per-model batch schedulers
    // are internal to runServeTenants.
    out.count.num("reco.avg_batch_samples", 0.0);
    out.count.num("reco.max_sched_depth", 0.0);
    out.count.num("reco.queue_wait_sim_ms", victim.meanQueueUs / 1e3);
    out.count.num("reco.service_sim_ms", victim.meanServiceUs / 1e3);
    out.count.num("cache.host_served_frac", 0.0);
    out.count.num("shard.scattered_ops", 0.0);
    out.count.num("shard.subop_p95_sim_ms_max", 0.0);
    out.count.num("shard.subop_p95_sim_ms_min", 0.0);
    out.count.num("qos.victim.reservation_grants",
                  static_cast<double>(victim.qos.reservationGrants));
    out.count.num("qos.victim.weight_grants",
                  static_cast<double>(victim.qos.weightGrants));
    out.count.num("qos.victim.queue_sim_ms", victim.meanQueueUs / 1e3);
    out.count.num("qos.antagonist.limit_deferrals",
                  static_cast<double>(ant.qos.limitDeferrals));
    out.count.num("qos.update_deferrals", static_cast<double>(updDeferrals));
    out.count.num("update.submitted", static_cast<double>(updSubmitted));
    out.count.num("update.applied", static_cast<double>(updApplied));
    out.count.num("update.flushes", static_cast<double>(updFlushes));
    out.count.num("obs.spans",
                  static_cast<double>(sys.tracer().spans().size()));
    out.count.num("obs.blame_requests", report.requests);
    rec.end(check);

    if (o.spans) {
        std::uint64_t drawn = 0;
        // The tenants share one model, hence one runner and one
        // stream of trace draws.
        std::uint64_t samples = 0;
        for (const TenantSpec &t : tcfg.tenants.tenants)
            samples += std::uint64_t{queriesOf(t) + tcfg.warmupQueries} *
                       t.shape.maxBatch;
        timed(rec, "trace_replay", [&] {
            drawn = replayTrace(model, runnerOptions(o), ts.batchesDispatched,
                                samples);
        });
        out.count.num("trace.ids_drawn", static_cast<double>(drawn));
        timed(rec, "load_replay", [&] {
            for (unsigned t = 0; t < tcfg.tenants.size(); ++t) {
                const TenantSpec &spec = tcfg.tenants.tenants[t];
                LoadGenerator gen(spec.arrivals, spec.shape,
                                  tenantSeed(tcfg.seed, t, spec.seed));
                gen.schedule(queriesOf(spec) + tcfg.warmupQueries);
            }
        });
    }
}

/** The recorded spans, written once at the end of the run. */
std::string
spansJson(const std::vector<perfbench::Span> &spans)
{
    std::string list;
    for (const perfbench::Span &sp : spans) {
        JsonObject s;
        s.str("name", sp.name);
        s.num("parent", sp.parent);
        s.num("start_ns", static_cast<double>(sp.startNs));
        s.num("end_ns", static_cast<double>(sp.endNs));
        list += (list.empty() ? "" : ", ") + s.text();
    }
    return "[" + list + "]";
}

/** Self time per span name, the median over same-named spans (the
 *  set-up repetitions). */
std::string
selfTimesJson(const std::vector<perfbench::Span> &spans)
{
    std::vector<double> self = perfbench::selfTimes(spans);
    std::map<std::string, std::vector<double>> byName;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byName[spans[i].name].push_back(self[i]);
    JsonObject o;
    for (const auto &[name, v] : byName)
        o.num(name, median(v));
    return o.text();
}

}  // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    SpanRecorder rec(o.spans);
    Outcome out;

    int root = rec.begin("iteration");
    if (o.tenants)
        runTenantWorkload(o, rec, out);
    else
        runServeWorkload(o, rec, out);
    rec.end(root);
    out.host.num("peak_rss_mb", perfbench::peakRssMb());

    JsonObject build;
    build.str("build_type", PERFBENCH_BUILD_TYPE);
    build.str("compiler", PERFBENCH_COMPILER);
    build.num("nproc", std::thread::hardware_concurrency());

    JsonObject doc;
    doc.str("workload", o.workload);
    doc.str("seed", std::to_string(o.seed));
    doc.raw("correct", out.correct ? "true" : "false");
    doc.num("attempted", static_cast<double>(out.attempted));
    doc.num("failed", static_cast<double>(out.failed));
    doc.raw("build", build.text());
    doc.raw("host", out.host.text());
    doc.raw("sim", out.sim.text());
    doc.raw("pool", out.pool.text());
    doc.raw("count", out.count.text());
    doc.raw("check", out.check.text());
    if (o.spans) {
        doc.raw("self_s", selfTimesJson(rec.spans()));
        doc.raw("spans", spansJson(rec.spans()));
    }
    std::printf("%s\n", doc.text().c_str());
    return out.correct ? 0 : 1;
}
