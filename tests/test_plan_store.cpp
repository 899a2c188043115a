// Differential oracles for plan persistence:
//  - every registry scheme's plan must survive encode -> PlanStore ->
//    decode with trace-for-trace identical executions vs the freshly
//    labeled plan, and every recorded result must decode to itself;
//  - record-level validation: corrupted, truncated, wrong-version,
//    wrong-family, and trailing-byte records are rejected (nullopt +
//    rejected counter), never crash;
//  - byte-budget LRU evictions fall back to the store (reload, not
//    recompute);
//  - the warm-restart oracle: a fresh runner over a populated store
//    answers a whole batch with zero labeling constructions and
//    byte-identical formatted results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"
#include "support/bytes.hpp"

namespace radiocast {
namespace {

using runtime::PlanStore;
using runtime::PlanStoreKind;

/// A fresh, empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "radiocast_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_traces_equal(const sim::Trace& a, const sim::Trace& b,
                         const std::string& what) {
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << what;
  for (std::size_t r = 0; r < a.rounds().size(); ++r) {
    const auto& ra = a.rounds()[r];
    const auto& rb = b.rounds()[r];
    EXPECT_EQ(ra.transmissions, rb.transmissions) << what << " round " << r + 1;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << what << " round " << r + 1;
    EXPECT_EQ(ra.collisions, rb.collisions) << what << " round " << r + 1;
  }
}

// Serialize -> store -> reload -> decode must yield a plan whose execution
// is indistinguishable from the fresh plan's, for every scheme the registry
// knows.  This is the oracle that licenses serving persisted plans at all.
TEST(PlanStoreRoundTrip, EverySchemePlanSurvivesTheStore) {
  const graph::Graph g = graph::grid(3, 4);
  const graph::NodeId source = 1;
  PlanStore store(fresh_dir("roundtrip"));

  for (const runtime::Scheme* scheme :
       runtime::SchemeRegistry::instance().schemes()) {
    const std::string what(scheme->name());
    // Every built-in scheme persists its plans; a registry addition that
    // cannot is a deliberate choice, not an accident.
    ASSERT_TRUE(scheme->can_store_plans()) << what;

    runtime::SchemeOptions opt;
    opt.seed = 7;
    runtime::ExecutionConfig config;
    config.trace = sim::TraceLevel::kFull;
    config.collision_detection = scheme->needs_collision_detection();

    const runtime::PlanPtr fresh = scheme->label(g, source, opt);
    ASSERT_NE(fresh, nullptr) << what;

    support::ByteWriter writer;
    scheme->encode_plan(*fresh, writer);
    const std::string key = "test|" + what;
    ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, scheme->plan_family(),
                          writer.bytes()))
        << what;
    const auto payload =
        store.get(PlanStoreKind::kPlan, key, scheme->plan_family());
    ASSERT_TRUE(payload.has_value()) << what;
    EXPECT_EQ(*payload, writer.bytes()) << what;

    support::ByteReader reader(*payload);
    const runtime::PlanPtr decoded = scheme->decode_plan(reader);
    ASSERT_NE(decoded, nullptr) << what;
    EXPECT_TRUE(reader.exhausted()) << what;

    const runtime::SchemeResult a =
        runtime::run_with_plan(*scheme, g, source, fresh, opt, config);
    const runtime::SchemeResult b =
        runtime::run_with_plan(*scheme, g, source, decoded, opt, config);
    EXPECT_EQ(a.ok, b.ok) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.completion_round, b.completion_round) << what;
    EXPECT_EQ(a.tx_total, b.tx_total) << what;
    expect_traces_equal(a.trace, b.trace, what);

    // A flipped leading byte (the codec tag) must be rejected, not decoded.
    std::string mangled = *payload;
    mangled[0] = static_cast<char>(mangled[0] ^ 0x5a);
    support::ByteReader bad(mangled);
    EXPECT_EQ(scheme->decode_plan(bad), nullptr) << what;

    if (!scheme->can_compile()) continue;

    const runtime::CompiledPlanPtr compiled =
        scheme->compile(g, source, fresh, opt, config);
    ASSERT_NE(compiled, nullptr) << what;
    support::ByteWriter cwriter;
    scheme->encode_compiled(*compiled, cwriter);
    ASSERT_TRUE(store.put(PlanStoreKind::kCompiled, key, what,
                          cwriter.bytes()))
        << what;
    const auto cpayload = store.get(PlanStoreKind::kCompiled, key, what);
    ASSERT_TRUE(cpayload.has_value()) << what;
    support::ByteReader creader(*cpayload);
    const runtime::CompiledPlanPtr cdecoded = scheme->decode_compiled(creader);
    ASSERT_NE(cdecoded, nullptr) << what;
    EXPECT_TRUE(creader.exhausted()) << what;
    std::string cmangled = *cpayload;
    cmangled.back() = static_cast<char>(cmangled.back() ^ 0x5a);
    support::ByteReader cbad(cmangled);
    EXPECT_EQ(scheme->decode_compiled(cbad), nullptr) << what;

    const runtime::SchemeResult ra =
        scheme->replay(g, source, *compiled, config);
    const runtime::SchemeResult rb =
        scheme->replay(g, source, *cdecoded, config);
    EXPECT_EQ(runtime::wire::encode_result(ra),
              runtime::wire::encode_result(rb))
        << what;
    EXPECT_EQ(ra.rounds, a.rounds) << what;
    EXPECT_EQ(ra.tx_total, a.tx_total) << what;
  }
}

// Every way a record file can rot — flipped payload bytes, truncation, a
// future format version, the wrong family, trailing garbage — must surface
// as a clean nullopt plus a rejected tick, and a re-put must recover.
TEST(PlanStoreValidation, CorruptRecordsAreRejectedNotTrusted) {
  PlanStore store(fresh_dir("validation"));
  const std::string key = "h0011223344556677|b|src1|p0|s0";
  const std::string payload = "payload-bytes-with-structure";
  ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, "b", payload));
  ASSERT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), payload);
  const std::string path = store.record_path(PlanStoreKind::kPlan, key);
  ASSERT_TRUE(std::filesystem::exists(path));

  const auto read_file = [&path]() {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto write_file = [&path](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string good = read_file();

  const auto expect_rejected = [&](const std::string& what) {
    const std::uint64_t before = store.stats().rejected;
    EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), std::nullopt) << what;
    EXPECT_EQ(store.stats().rejected, before + 1) << what;
  };

  // Wrong family: the record is intact but addressed by another scheme.
  {
    const std::uint64_t before = store.stats().rejected;
    EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "arb"), std::nullopt);
    EXPECT_EQ(store.stats().rejected, before + 1);
  }

  // Flip one payload byte: the content checksum must catch it.
  {
    std::string bad = good;
    bad[bad.size() - 12] = static_cast<char>(bad[bad.size() - 12] ^ 0x01);
    write_file(bad);
    expect_rejected("flipped payload byte");
  }

  // Truncate the record mid-payload.
  write_file(good.substr(0, good.size() / 2));
  expect_rejected("truncated record");

  // Stamp a future format version.
  {
    std::string bad = good;
    bad[4] = static_cast<char>(0xff);
    write_file(bad);
    expect_rejected("future format version");
  }

  // Corrupt the magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    write_file(bad);
    expect_rejected("bad magic");
  }

  // Trailing bytes after the checksum.
  write_file(good + "z");
  expect_rejected("trailing bytes");

  // Absent records are misses, not rejections.
  {
    const auto before = store.stats();
    EXPECT_EQ(store.get(PlanStoreKind::kPlan, "no-such-key", "b"),
              std::nullopt);
    EXPECT_EQ(store.stats().rejected, before.rejected);
  }

  // A fresh put over the rotten file restores service.
  ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, "b", payload));
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), payload);

  store.erase(PlanStoreKind::kPlan, key);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), std::nullopt);
}

// With a byte budget far below the working set, the cache holds one entry
// at a time — and the second pass over the batch must be served by store
// reloads (plan_store_hits), never by new labeling constructions.
TEST(PlanStoreEviction, EvictedEntriesReloadFromDiskNotRecompute) {
  par::ThreadPool pool(2);
  PlanStore store(fresh_dir("eviction"));
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  runner.cache().set_byte_budget(1);  // evict everything but the newest

  std::vector<runtime::ExperimentSpec> specs;
  for (const char* gen : {"path:8", "cycle:9", "star:7"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = "b";
    spec.graph.generator = gen;
    specs.push_back(std::move(spec));
  }

  const auto cold = runner.run(specs);
  auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_store_hits, 0u);
  EXPECT_GE(stats.plan_evictions, 2u);
  EXPECT_EQ(runner.cache().plan_count(), 1u);
  EXPECT_EQ(store.stats().writes, 3u);

  const auto warm = runner.run(specs);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 3u) << "evictions must not cause recomputes";
  EXPECT_EQ(stats.plan_store_hits, 3u);

  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].rounds, warm[i].rounds) << specs[i].graph.generator;
    EXPECT_EQ(cold[i].completion_round, warm[i].completion_round);
    EXPECT_EQ(cold[i].ok, warm[i].ok);
  }
}

// The acceptance oracle: kill the process (here: drop the runner), start a
// fresh one over the same store directory, and the first batch must run
// with zero labeling constructions — plans and compiled executions all
// decode from disk — while reproducing the cold results byte for byte.
TEST(PlanStoreWarmRestart, FreshRunnerAnswersFromTheStoreAlone) {
  const std::string dir = fresh_dir("warm_restart");
  const graph::Graph g = graph::grid(3, 4);

  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme :
       {"b", "ack", "common-round", "arb", "multi", "round-robin"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:3:4";
    spec.source = 2;
    specs.push_back(std::move(spec));
  }
  // Compiled fast-path specs exercise the .cplan records too.
  for (const char* scheme : {"b", "ack", "arb"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:3:4";
    spec.source = 0;
    spec.config.compiled = true;
    specs.push_back(std::move(spec));
  }

  std::vector<std::string> cold_lines;
  {
    par::ThreadPool pool(2);
    PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    runner.add_graph(g, "grid:3:4");
    const auto results = runner.run(specs);
    cold_lines = analysis::format_sweep(specs, results);
    const auto stats = runner.cache_stats();
    EXPECT_GT(stats.plan_misses, 0u);
    EXPECT_GT(stats.compiled_misses, 0u);
    EXPECT_GT(store.stats().writes, 0u);
  }

  // "Restart": nothing survives but the directory.  The new runner has
  // never seen the graph — the GraphRef generator materializes it.
  par::ThreadPool pool(2);
  PlanStore store(dir);
  EXPECT_GT(store.entry_count(), 0u);
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  const auto results = runner.run(specs);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 0u)
      << "a warm restart must not construct any labeling";
  EXPECT_EQ(stats.compiled_misses, 0u)
      << "a warm restart must not recompile any execution";
  EXPECT_GT(stats.plan_store_hits, 0u);
  EXPECT_GT(stats.compiled_store_hits, 0u);
  EXPECT_EQ(analysis::format_sweep(specs, results), cold_lines);
}

// Format 3 changed what a .cplan record holds (a recorded SchemeResult
// instead of a plan plus a flat predicted execution).  A record left by a
// format-2 store must be rejected, recomputed and rewritten, never decoded.
TEST(PlanStoreValidation, FormatTwoRecordedResultIsRecomputed) {
  const std::string dir = fresh_dir("format_two");
  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:3:4";
    spec.config.compiled = true;
    specs.push_back(std::move(spec));
  }
  std::vector<std::string> cold;
  {
    par::ThreadPool pool(2);
    PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    for (const auto& r : runner.run(specs)) {
      cold.push_back(runtime::wire::encode_result(r));
    }
  }
  // Stamp every .cplan record with format version 2 (u32 after "RCPS").
  std::size_t stamped = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cplan") continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    f.seekp(4);
    const char v2[4] = {2, 0, 0, 0};
    f.write(v2, sizeof v2);
    ++stamped;
  }
  ASSERT_EQ(stamped, specs.size());

  par::ThreadPool pool(2);
  PlanStore store(dir);
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  const auto warm = runner.run(specs);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.compiled_store_hits, 0u);
  EXPECT_EQ(stats.compiled_misses, specs.size());
  EXPECT_EQ(store.stats().rejected, specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(runtime::wire::encode_result(warm[i]), cold[i])
        << specs[i].scheme;
  }

  // The recomputed records were written back in the current format.
  PlanStore reopened(dir);
  runtime::SweepRunner again(pool);
  again.attach_store(&reopened);
  again.run(specs);
  EXPECT_EQ(again.cache_stats().compiled_store_hits, specs.size());
  EXPECT_EQ(reopened.stats().rejected, 0u);
}

// A writer that crashes between creating its temp file and renaming it into
// place leaves "<record>.tmp<N>" behind.  Opening the store sweeps those
// orphans (they were never visible under a live key), counts them, and
// leaves real records untouched.
TEST(PlanStore, OpenSweepsOrphanedTempFiles) {
  const std::string dir = fresh_dir("orphans");
  {
    PlanStore store(dir);
    EXPECT_EQ(store.stats().orphans_swept, 0u);
    ASSERT_TRUE(store.put(PlanStoreKind::kPlan, "live-key", "fam", "payload"));
  }
  // Simulate two crashed writers plus an unrelated file the sweep must not
  // touch.
  const std::string live =
      PlanStore(dir).record_path(PlanStoreKind::kPlan, "live-key");
  std::ofstream(live + ".tmp3") << "half-written";
  std::ofstream(dir + "/deadbeef00000000.cplan.tmp12") << "torn";
  std::ofstream(dir + "/notes.txt") << "keep me";

  PlanStore reopened(dir);
  EXPECT_EQ(reopened.stats().orphans_swept, 2u);
  EXPECT_FALSE(std::filesystem::exists(live + ".tmp3"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/deadbeef00000000.cplan.tmp12"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  // The live record still reads back.
  const auto payload =
      reopened.get(PlanStoreKind::kPlan, "live-key", "fam");
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload");
  EXPECT_EQ(reopened.entry_count(), 1u);
}

// compact(max_bytes) shrinks the store to the budget by deleting the
// records least likely to be needed again: never-read records go first
// (oldest on disk leading), then served records in least-recently-read
// order.  Survivors keep answering; the evicted count lands in stats.
TEST(PlanStoreCompact, EvictsLeastRecentlyReadRecordsFirst) {
  PlanStore store(fresh_dir("compact"));
  const std::string payload(64, 'p');
  for (const char* key : {"k1", "k2", "k3", "k4"}) {
    ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, "fam", payload));
  }
  const std::size_t total = store.total_bytes();
  ASSERT_GT(total, 0u);
  ASSERT_EQ(total % 4, 0u) << "identical records must have identical sizes";
  const std::size_t record = total / 4;

  // Serve k2 then k4: k4 is now the most recently read, k2 second; k1 and
  // k3 have never been read and are the first eviction candidates.
  ASSERT_TRUE(store.get(PlanStoreKind::kPlan, "k2", "fam").has_value());
  ASSERT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());

  // A budget the store already satisfies evicts nothing.
  EXPECT_EQ(store.compact(total), 0u);
  EXPECT_EQ(store.stats().records_evicted, 0u);
  EXPECT_EQ(store.entry_count(), 4u);

  // Halving the budget must take both never-read records and neither of
  // the served ones.
  EXPECT_EQ(store.compact(2 * record), 2u);
  EXPECT_EQ(store.stats().records_evicted, 2u);
  EXPECT_EQ(store.entry_count(), 2u);
  EXPECT_LE(store.total_bytes(), 2 * record);
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, "k1", "fam"), std::nullopt);
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, "k3", "fam"), std::nullopt);
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k2", "fam").has_value());
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());

  // Down to one record: k2 was read before k4 on the last pass... but the
  // misses above did not touch recency, and k2's successful reload just
  // made it the freshest.  Read k4 again to pin the order, then compact.
  ASSERT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());
  EXPECT_EQ(store.compact(record), 1u);
  EXPECT_EQ(store.stats().records_evicted, 3u);
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, "k2", "fam"), std::nullopt);
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());

  // A zero budget empties the store entirely.
  EXPECT_EQ(store.compact(0), 1u);
  EXPECT_EQ(store.stats().records_evicted, 4u);
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);

  // An evicted key is a miss, not a rejection — and a re-put restores it.
  EXPECT_EQ(store.stats().rejected, 0u);
  ASSERT_TRUE(store.put(PlanStoreKind::kPlan, "k4", "fam", payload));
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());
}

}  // namespace
}  // namespace radiocast
