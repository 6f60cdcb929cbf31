// Durability tests (docs/DURABILITY.md): WAL framing and torn-tail
// semantics, checkpoint atomicity and verification, durable_store
// create/log/checkpoint/recover, registry wiring (append-before-publish,
// recover_mutable), byte-level corruption fuzzing of both file formats,
// and the crash harness — a child process killed by `crash` failpoints at
// every durable-write site, whose directory must recover edge-for-edge to
// the last acked batch.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/checkpoint.h"
#include "dynamic/mutable_graph.h"
#include "dynamic/wal.h"
#include "engine/registry.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "util/failpoint.h"

#include "durability_workload.h"

using namespace ligra;
namespace dyn = ligra::dynamic;
namespace e = ligra::engine;
namespace fp = ligra::util::failpoint;
namespace fs = std::filesystem;
namespace wk = durability_workload;

namespace {

// A scratch directory removed (recursively) on destruction.
class TempDirectory {
 public:
  explicit TempDirectory(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDirectory() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using edge_set = std::set<std::pair<vertex_id, vertex_id>>;

std::pair<vertex_id, vertex_id> canon(vertex_id u, vertex_id v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

template <class G>
edge_set edges_of(const G& g) {
  edge_set s;
  for (vertex_id v = 0; v < g.num_vertices(); v++)
    g.decode_out(v, [&](vertex_id w, empty_weight, size_t) {
      s.insert(canon(v, w));
      return true;
    });
  return s;
}

// The exact state the workload reaches after `versions` batches.
dyn::mutable_graph simulate(uint64_t versions) {
  dyn::mutable_graph mg(wk::base_graph());
  for (uint64_t k = 0; k < versions; k++)
    mg = mg.apply(wk::make_batch(k)).next;
  return mg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  return data;
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

dyn::update_batch batch_of(std::vector<edge> ins, std::vector<edge> dels) {
  dyn::update_batch b;
  b.inserts = std::move(ins);
  b.deletes = std::move(dels);
  return b;
}

// Every test leaves the failpoint registry clean.
class DurabilityFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

}  // namespace

// --- WAL framing ------------------------------------------------------------

TEST(DurabilityWal, EncodeDecodeRoundTrip) {
  dyn::update_batch b = batch_of({{1, 2}, {3, 4}}, {{5, 6}});
  std::vector<char> payload = dyn::encode_batch(b);
  EXPECT_EQ(payload.size(), 8 + 8 * 3);
  dyn::update_batch back = dyn::decode_batch(payload.data(), payload.size());
  EXPECT_EQ(back.inserts.size(), 2u);
  EXPECT_EQ(back.deletes.size(), 1u);
  EXPECT_EQ(back.inserts[1].u, 3u);
  EXPECT_EQ(back.deletes[0].v, 6u);
  // Structurally impossible payloads are typed errors, not UB.
  EXPECT_THROW(dyn::decode_batch(payload.data(), 4), dyn::wal_error);
  EXPECT_THROW(dyn::decode_batch(payload.data(), payload.size() - 1),
               dyn::wal_error);
}

TEST(DurabilityWal, WriterAppendsAndScanReadsBack) {
  TempDirectory d("wal_roundtrip");
  const std::string wal = d.path() + "/wal.log";
  {
    auto w = dyn::wal_writer::create(wal, /*base_seq=*/10);
    EXPECT_EQ(w->append(batch_of({{1, 2}}, {})), 11u);
    EXPECT_EQ(w->append(batch_of({{3, 4}}, {{1, 2}})), 12u);
    EXPECT_EQ(w->append(batch_of({}, {})), 13u);  // empty records are legal
    EXPECT_EQ(w->last_seq(), 13u);
  }
  dyn::wal_scan scan = dyn::scan_wal(wal);
  EXPECT_EQ(scan.base_seq, 10u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.tail_truncated);
  EXPECT_EQ(scan.records[0].seq, 11u);
  EXPECT_EQ(scan.records[1].batch.deletes.size(), 1u);
  EXPECT_TRUE(scan.records[2].batch.empty());
  EXPECT_EQ(scan.valid_bytes, fs::file_size(wal));
}

TEST(DurabilityWal, OpenResumesAppendingAfterScan) {
  TempDirectory d("wal_resume");
  const std::string wal = d.path() + "/wal.log";
  {
    auto w = dyn::wal_writer::create(wal, 0);
    w->append(batch_of({{1, 2}}, {}));
  }
  {
    auto w = dyn::wal_writer::open(wal, dyn::scan_wal(wal));
    EXPECT_EQ(w->last_seq(), 1u);
    EXPECT_EQ(w->append(batch_of({{2, 3}}, {})), 2u);
  }
  dyn::wal_scan scan = dyn::scan_wal(wal);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].seq, 2u);
}

TEST(DurabilityWal, TornTailIsTruncatedNotFatal) {
  TempDirectory d("wal_torn");
  const std::string wal = d.path() + "/wal.log";
  {
    auto w = dyn::wal_writer::create(wal, 0);
    w->append(batch_of({{1, 2}}, {}));
    w->append(batch_of({{3, 4}}, {}));
  }
  const std::string pristine = read_file(wal);
  // Chop the file at every length: the scan must never throw past a valid
  // header, and must return the longest record prefix the bytes contain.
  dyn::wal_scan full = dyn::scan_wal(wal);
  ASSERT_EQ(full.records.size(), 2u);
  const uint64_t rec1_end = dyn::kWalHeaderBytes + dyn::kWalRecordHeaderBytes +
                            dyn::encode_batch(full.records[0].batch).size();
  for (size_t len = dyn::kWalHeaderBytes; len < pristine.size(); len++) {
    write_file(wal, pristine.substr(0, len));
    dyn::wal_scan scan = dyn::scan_wal(wal);
    const size_t expect = len >= pristine.size() ? 2 : len >= rec1_end ? 1 : 0;
    EXPECT_EQ(scan.records.size(), expect) << "at length " << len;
    EXPECT_EQ(scan.tail_truncated, len > scan.valid_bytes)
        << "at length " << len;
    // truncate_wal repairs to exactly the valid prefix.
    dyn::truncate_wal(wal, scan.valid_bytes);
    EXPECT_FALSE(dyn::scan_wal(wal).tail_truncated);
    write_file(wal, pristine);
  }
  // Shorter than the header: the log's identity is gone — typed error.
  write_file(wal, pristine.substr(0, dyn::kWalHeaderBytes - 1));
  EXPECT_THROW(dyn::scan_wal(wal), dyn::wal_error);
}

TEST(DurabilityWal, FsyncPolicies) {
  TempDirectory d("wal_fsync");
  dyn::wal_options always;  // default
  auto w1 = dyn::wal_writer::create(d.path() + "/a.log", 0, always);
  w1->append(batch_of({{1, 2}}, {}));
  w1->append(batch_of({{2, 3}}, {}));
  EXPECT_EQ(w1->fsyncs(), 2u);

  dyn::wal_options interval;
  interval.fsync = dyn::fsync_policy::interval;
  interval.fsync_interval = 3;
  auto w2 = dyn::wal_writer::create(d.path() + "/b.log", 0, interval);
  for (int i = 0; i < 7; i++) w2->append(batch_of({{1, 2}}, {}));
  EXPECT_EQ(w2->fsyncs(), 2u);  // after appends 3 and 6

  dyn::wal_options never;
  never.fsync = dyn::fsync_policy::never;
  auto w3 = dyn::wal_writer::create(d.path() + "/c.log", 0, never);
  for (int i = 0; i < 5; i++) w3->append(batch_of({{1, 2}}, {}));
  EXPECT_EQ(w3->fsyncs(), 0u);
  w3->sync();
  EXPECT_EQ(w3->fsyncs(), 1u);

  EXPECT_EQ(dyn::parse_fsync_policy("interval"), dyn::fsync_policy::interval);
  EXPECT_THROW(dyn::parse_fsync_policy("sometimes"), std::invalid_argument);
  EXPECT_STREQ(dyn::fsync_policy_name(dyn::fsync_policy::never), "never");
}

// --- checkpoints ------------------------------------------------------------

TEST(DurabilityCheckpoint, RoundTripAndAtomicReplace) {
  TempDirectory d("ckpt_roundtrip");
  const std::string path = d.path() + "/ckpt-5.ckpt";
  graph g = gen::rmat_graph(7, 1 << 9, /*seed=*/3);
  dyn::write_checkpoint(path, g, {5, 17});
  dyn::checkpoint_data back = dyn::read_checkpoint(path);
  EXPECT_EQ(back.meta.wal_seq, 5u);
  EXPECT_EQ(back.meta.graph_version, 17u);
  EXPECT_EQ(edges_of(back.g), edges_of(g));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // temp renamed away

  // Overwriting the same path is atomic: the new content fully replaces.
  graph g2 = gen::random_graph(100, 3, /*seed=*/5);
  dyn::write_checkpoint(path, g2, {9, 20});
  EXPECT_EQ(dyn::read_checkpoint(path).meta.wal_seq, 9u);
  EXPECT_EQ(edges_of(dyn::read_checkpoint(path).g), edges_of(g2));
}

TEST(DurabilityCheckpoint, EveryBitFlipIsDetected) {
  TempDirectory d("ckpt_flip");
  const std::string path = d.path() + "/ckpt-0.ckpt";
  dyn::write_checkpoint(path, gen::random_graph(60, 3, /*seed=*/9), {0, 0});
  const std::string pristine = read_file(path);
  for (size_t i = 0; i < pristine.size(); i++) {
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    write_file(path, mutated);
    EXPECT_THROW(dyn::read_checkpoint(path), dyn::wal_error)
        << "bit flip at byte " << i << " went undetected";
  }
}

// --- durable_store ----------------------------------------------------------

TEST(DurabilityStore, CreateThenRecoverEmptyRestoresBase) {
  TempDirectory d("store_empty");
  graph g = wk::base_graph();
  edge_set expect = edges_of(g);
  { auto store = dyn::durable_store::create(d.path(), g, 0); }
  ASSERT_TRUE(dyn::durable_store::has_state(d.path()));
  auto rec = dyn::durable_store::recover(d.path());
  EXPECT_EQ(edges_of(rec.g), expect);
  EXPECT_EQ(rec.graph_version, 0u);
  EXPECT_EQ(rec.report.replayed, 0u);
  EXPECT_EQ(rec.report.checkpoints_skipped, 0u);
}

TEST(DurabilityStore, CreateRefusesExistingState) {
  TempDirectory d("store_refuse");
  graph g = wk::base_graph();
  { auto store = dyn::durable_store::create(d.path(), g, 0); }
  EXPECT_THROW(dyn::durable_store::create(d.path(), g, 0),
               dyn::recovery_error);
  EXPECT_THROW(dyn::durable_store::recover(d.path() + "/nope"),
               dyn::recovery_error);
}

TEST(DurabilityStore, LogReplayRecoversExactState) {
  TempDirectory d("store_replay");
  const uint64_t kBatches = 9;
  {
    dyn::durability_options opts;
    opts.checkpoint_interval = 0;  // force everything through replay
    auto store = dyn::durable_store::create(d.path(), wk::base_graph(), 0,
                                            opts);
    dyn::mutable_graph mg(wk::base_graph());
    for (uint64_t k = 0; k < kBatches; k++) {
      dyn::applied ap = mg.apply(wk::make_batch(k));
      mg = std::move(ap.next);
      store->log(batch_of(std::move(ap.inserted), std::move(ap.deleted)));
      store->note_applied([&] { return mg.materialize(); }, mg.version());
    }
  }
  auto rec = dyn::durable_store::recover(d.path());
  EXPECT_EQ(rec.report.replayed, kBatches);
  EXPECT_EQ(rec.graph_version, kBatches);
  EXPECT_EQ(edges_of(rec.g), edges_of(simulate(kBatches)));
  // Recovery re-checkpointed: a second recovery replays nothing.
  auto rec2 = dyn::durable_store::recover(d.path());
  EXPECT_EQ(rec2.report.replayed, 0u);
  EXPECT_EQ(rec2.report.checkpoint_seq, kBatches);
  EXPECT_EQ(edges_of(rec2.g), edges_of(rec.g));
}

TEST(DurabilityStore, AutoCheckpointRotatesAndPrunes) {
  TempDirectory d("store_prune");
  dyn::durability_options opts;
  opts.checkpoint_interval = 2;
  opts.retain_checkpoints = 2;
  auto store = dyn::durable_store::create(d.path(), wk::base_graph(), 0, opts);
  dyn::mutable_graph mg(wk::base_graph());
  for (uint64_t k = 0; k < 8; k++) {
    dyn::applied ap = mg.apply(wk::make_batch(k));
    mg = std::move(ap.next);
    store->log(batch_of(std::move(ap.inserted), std::move(ap.deleted)));
    store->note_applied([&] { return mg.materialize(); }, mg.version());
  }
  dyn::wal_stats s = store->stats();
  EXPECT_EQ(s.checkpoints, 4u);       // every 2 of 8 batches
  EXPECT_EQ(s.checkpoint_seq, 8u);
  EXPECT_EQ(s.base_seq, 8u);          // WAL reset after the newest one
  EXPECT_EQ(s.since_checkpoint, 0u);
  size_t ckpts = 0;
  for (const auto& ent : fs::directory_iterator(d.path()))
    if (ent.path().extension() == ".ckpt") ckpts++;
  EXPECT_EQ(ckpts, 2u);  // retain_checkpoints
}

// Newest checkpoint corrupt, but the WAL still bridges from the previous
// one (the crash-between-rename-and-reset window): recovery falls back.
TEST_F(DurabilityFailpointTest, RecoverFallsBackToOlderCheckpoint) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempDirectory d("store_fallback");
  const uint64_t kBatches = 5;
  {
    dyn::durability_options opts;
    opts.checkpoint_interval = 0;
    auto store = dyn::durable_store::create(d.path(), wk::base_graph(), 0,
                                            opts);
    dyn::mutable_graph mg(wk::base_graph());
    for (uint64_t k = 0; k < kBatches; k++) {
      dyn::applied ap = mg.apply(wk::make_batch(k));
      mg = std::move(ap.next);
      store->log(batch_of(std::move(ap.inserted), std::move(ap.deleted)));
    }
    // Fail the checkpoint *between* its rename and the WAL reset: the new
    // checkpoint file lands, the log keeps its full history.
    fp::spec s;
    s.act = fp::action::fail;
    s.skip = 1;  // past the pre-write evaluation
    fp::arm("checkpoint.write", s);
    EXPECT_THROW(store->checkpoint_now(mg.materialize(), mg.version()),
                 dyn::wal_error);
    fp::disarm_all();
  }
  // Corrupt the newest checkpoint; the old one + WAL must reconstruct.
  const std::string newest = d.path() + "/ckpt-5.ckpt";
  ASSERT_TRUE(fs::exists(newest));
  std::string data = read_file(newest);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0xFF);
  write_file(newest, data);

  auto rec = dyn::durable_store::recover(d.path());
  EXPECT_EQ(rec.report.checkpoints_skipped, 1u);
  EXPECT_EQ(rec.report.checkpoint_seq, 0u);
  EXPECT_EQ(rec.report.replayed, kBatches);
  EXPECT_EQ(edges_of(rec.g), edges_of(simulate(kBatches)));
}

// A corrupt newest checkpoint *after* the WAL was reset is unrecoverable —
// the bridge records are gone — and must be a typed error, not garbage.
TEST(DurabilityStore, UnbridgeableGapIsTypedError) {
  TempDirectory d("store_gap");
  {
    dyn::durability_options opts;
    opts.checkpoint_interval = 0;
    opts.retain_checkpoints = 2;
    auto store = dyn::durable_store::create(d.path(), wk::base_graph(), 0,
                                            opts);
    dyn::mutable_graph mg(wk::base_graph());
    for (uint64_t k = 0; k < 3; k++) {
      dyn::applied ap = mg.apply(wk::make_batch(k));
      mg = std::move(ap.next);
      store->log(batch_of(std::move(ap.inserted), std::move(ap.deleted)));
    }
    store->checkpoint_now(mg.materialize(), mg.version());  // WAL resets
  }
  const std::string newest = d.path() + "/ckpt-3.ckpt";
  ASSERT_TRUE(fs::exists(newest));
  std::string data = read_file(newest);
  data[data.size() - 1] = static_cast<char>(data[data.size() - 1] ^ 1);
  write_file(newest, data);
  EXPECT_THROW(dyn::durable_store::recover(d.path()), dyn::recovery_error);
}

// --- registry wiring --------------------------------------------------------

TEST(DurabilityRegistry, DurableApplyPersistsAcrossEvictAndRecover) {
  TempDirectory d("reg_persist");
  const uint64_t kBatches = 6;
  e::registry reg;
  e::graph_handle h = reg.add_mutable("g", wk::base_graph(), d.path());
  EXPECT_TRUE(reg.is_durable("g"));
  EXPECT_FALSE(reg.is_durable("nope"));
  for (uint64_t k = 0; k < kBatches; k++)
    h = reg.apply_updates("g", wk::make_batch(k));
  edge_set live = edges_of(*h->dyn());
  EXPECT_TRUE(reg.evict("g"));  // closes the store; state stays on disk

  dyn::recovery_report rep;
  e::graph_handle r = reg.recover_mutable("g", d.path(), {}, {}, &rep);
  EXPECT_EQ(r->dyn()->version(), kBatches);
  EXPECT_EQ(edges_of(*r->dyn()), live);
  EXPECT_EQ(edges_of(*r->dyn()), edges_of(simulate(kBatches)));
  // Incremental state is reseeded and converged.
  ASSERT_NE(r->inc(), nullptr);
  EXPECT_EQ(r->inc()->cc_labels.size(), wk::kN);
  // And the recovered entry accepts further durable updates.
  r = reg.apply_updates("g", wk::make_batch(kBatches));
  EXPECT_EQ(r->dyn()->version(), kBatches + 1);
}

TEST(DurabilityRegistry, CheckpointAndWalStats) {
  TempDirectory d("reg_stats");
  e::registry reg;
  dyn::durability_options dur;
  dur.checkpoint_interval = 0;  // manual checkpoints only
  reg.add_mutable("g", wk::base_graph(), d.path(), dur);
  for (uint64_t k = 0; k < 3; k++) reg.apply_updates("g", wk::make_batch(k));
  dyn::wal_stats s = reg.wal_stats("g");
  EXPECT_EQ(s.last_seq, 3u);
  EXPECT_EQ(s.appends, 3u);
  EXPECT_EQ(s.checkpoint_seq, 0u);
  EXPECT_EQ(s.since_checkpoint, 3u);
  EXPECT_EQ(s.fsync, "always");
  reg.checkpoint("g");
  s = reg.wal_stats("g");
  EXPECT_EQ(s.checkpoint_seq, 3u);
  EXPECT_EQ(s.base_seq, 3u);
  EXPECT_EQ(s.since_checkpoint, 0u);

  reg.add("plain", gen::random_graph(50, 2));
  EXPECT_THROW(reg.checkpoint("plain"), e::engine_error);
  EXPECT_THROW(reg.wal_stats("plain"), e::engine_error);
  EXPECT_THROW(reg.wal_stats("absent"), e::engine_error);
}

TEST(DurabilityRegistry, AddMutableRefusesDirWithState) {
  TempDirectory d("reg_refuse");
  e::registry reg;
  reg.add_mutable("g", wk::base_graph(), d.path());
  reg.evict("g");
  EXPECT_THROW(reg.add_mutable("g2", wk::base_graph(), d.path()),
               dyn::recovery_error);
}

TEST_F(DurabilityFailpointTest, AppendFailureLeavesEpochServingThenRecovers) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempDirectory d("reg_appendfail");
  e::registry reg;
  e::graph_handle before = reg.add_mutable("g", wk::base_graph(), d.path());
  e::retry_options fast;
  fast.max_attempts = 2;
  fast.base_backoff_ms = 1;

  fp::spec s;
  s.act = fp::action::fail;
  fp::arm("wal.append", s);
  EXPECT_THROW(reg.apply_updates("g", wk::make_batch(0), fast),
               e::update_error);
  fp::disarm_all();
  // The failed batch published nothing and logged nothing.
  EXPECT_EQ(reg.get("g")->epoch(), before->epoch());
  EXPECT_EQ(reg.wal_stats("g").last_seq, 0u);
  // The same writer keeps working once the fault clears.
  e::graph_handle after = reg.apply_updates("g", wk::make_batch(0));
  EXPECT_EQ(after->dyn()->version(), 1u);
  EXPECT_EQ(reg.wal_stats("g").last_seq, 1u);
  reg.evict("g");
  auto rec = dyn::durable_store::recover(d.path());
  EXPECT_EQ(edges_of(rec.g), edges_of(simulate(1)));
}

// --- corruption fuzzing -----------------------------------------------------

namespace {

// Builds a pristine durable directory with `batches` WAL records on top of
// a base checkpoint (WAL never reset), returning its path inside `d`.
std::string build_fuzz_state(const TempDirectory& d, uint64_t batches) {
  const std::string src = d.path() + "/pristine";
  dyn::durability_options opts;
  opts.checkpoint_interval = 0;
  auto store = dyn::durable_store::create(src, wk::base_graph(), 0, opts);
  dyn::mutable_graph mg(wk::base_graph());
  for (uint64_t k = 0; k < batches; k++) {
    dyn::applied ap = mg.apply(wk::make_batch(k));
    mg = std::move(ap.next);
    store->log(batch_of(std::move(ap.inserted), std::move(ap.deleted)));
  }
  return src;
}

// Copies pristine state into a scratch dir (recovery mutates its input).
std::string scratch_copy(const TempDirectory& d, const std::string& src) {
  const std::string dst = d.path() + "/scratch";
  fs::remove_all(dst);
  fs::create_directories(dst);
  for (const auto& ent : fs::directory_iterator(src))
    fs::copy_file(ent.path(), dst + "/" + ent.path().filename().string());
  return dst;
}

}  // namespace

TEST(DurabilityFuzz, WalBitFlipAtEveryByteRecoversPrefixOrTypedError) {
  TempDirectory d("fuzz_wal_flip");
  const uint64_t kBatches = 5;
  const std::string src = build_fuzz_state(d, kBatches);
  const std::string pristine = read_file(src + "/wal.log");
  size_t prefix_recoveries = 0;
  for (size_t i = 0; i < pristine.size(); i++) {
    const std::string dir = scratch_copy(d, src);
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x08);
    write_file(dir + "/wal.log", mutated);
    try {
      auto rec = dyn::durable_store::recover(dir);
      // Whatever replayed must be an exact prefix of the true history.
      ASSERT_LE(rec.report.replayed, kBatches) << "byte " << i;
      EXPECT_EQ(edges_of(rec.g), edges_of(simulate(rec.report.last_seq)))
          << "corrupt byte " << i << " recovered a non-prefix state";
      io::validate_graph(rec.g, "fuzz");  // structurally sound too
      if (rec.report.replayed < kBatches) prefix_recoveries++;
    } catch (const dyn::recovery_error&) {
      // Acceptable only while the file header is intact but unbridgeable —
      // which a single bit flip past the header never causes here.
      FAIL() << "bit flip at byte " << i << " made recovery fail outright";
    }
  }
  // Sanity: the fuzz actually exercised truncation, not just the header.
  EXPECT_GT(prefix_recoveries, 0u);
}

TEST(DurabilityFuzz, WalTruncationAtEveryLengthRecoversPrefix) {
  TempDirectory d("fuzz_wal_trunc");
  const uint64_t kBatches = 4;
  const std::string src = build_fuzz_state(d, kBatches);
  const std::string pristine = read_file(src + "/wal.log");
  for (size_t len = 0; len <= pristine.size(); len += 3) {
    const std::string dir = scratch_copy(d, src);
    write_file(dir + "/wal.log", pristine.substr(0, len));
    auto rec = dyn::durable_store::recover(dir);  // must never throw
    EXPECT_EQ(edges_of(rec.g), edges_of(simulate(rec.report.last_seq)))
        << "truncation to " << len << " bytes recovered a non-prefix state";
  }
}

TEST(DurabilityFuzz, CheckpointBitFlipFallsBackToOlder) {
  TempDirectory d("fuzz_ckpt_flip");
  const uint64_t kBatches = 4;
  const std::string src = build_fuzz_state(d, kBatches);
  // Land a newer checkpoint WITHOUT resetting the WAL (the state a crash
  // between rename and reset leaves), so corrupting it has a valid
  // fallback path through the older checkpoint + full log.
  {
    dyn::mutable_graph mg = simulate(kBatches);
    dyn::write_checkpoint(src + "/ckpt-" + std::to_string(kBatches) + ".ckpt",
                          mg.materialize(), {kBatches, kBatches});
  }
  const std::string newest =
      src + "/ckpt-" + std::to_string(kBatches) + ".ckpt";
  ASSERT_TRUE(fs::exists(newest));
  const std::string pristine = read_file(newest);
  // Step through the file (stride keeps runtime sane; covers header,
  // payload start, middle, and tail).
  for (size_t i = 0; i < pristine.size();
       i += (i < 64 ? 1 : pristine.size() / 97 + 1)) {
    const std::string dir = scratch_copy(d, src);
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    write_file(dir + "/ckpt-" + std::to_string(kBatches) + ".ckpt", mutated);
    auto rec = dyn::durable_store::recover(dir);
    EXPECT_EQ(rec.report.checkpoints_skipped, 1u) << "byte " << i;
    EXPECT_EQ(edges_of(rec.g), edges_of(simulate(kBatches)))
        << "corrupt checkpoint byte " << i << " changed the recovered state";
  }
}

// --- crash harness ----------------------------------------------------------

namespace {

struct child_run {
  int exit_code = -1;
  uint64_t last_ack = 0;
  uint64_t recovered_at = 0;  // version printed after an in-child recovery
  bool saw_recovered = false;
};

// Runs the crash child with `failpoints` armed via the environment,
// capturing its ACK stream.
child_run run_child(const std::string& dir, int batches,
                    const std::string& failpoints,
                    const std::string& fsync = "always") {
  // The pid keeps the file apart from other test processes' runs (ctest -j
  // runs every test in its own process, each counting from 0).
  static int run_id = 0;
  const std::string out = ::testing::TempDir() + "/child_out_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(run_id++);
  std::string cmd = "LIGRA_FAILPOINTS='" + failpoints + "' '" +
                    DURABILITY_CHILD_PATH + "' '" + dir + "' " +
                    std::to_string(batches) + " " + fsync + " 4 > '" + out +
                    "' 2>&1";
  int status = std::system(cmd.c_str());
  child_run r;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  std::ifstream in(out);
  std::string word;
  while (in >> word) {
    uint64_t v = 0;
    if (word == "ACK" && (in >> v)) r.last_ack = v;
    if (word == "RECOVERED" && (in >> v)) {
      r.saw_recovered = true;
      r.recovered_at = v;
    }
  }
  std::remove(out.c_str());
  return r;
}

// After a child died at `site`, recovery must reconstruct a graph
// bit-identical (canonical edge set + version) to the last durably acked
// batch — or a later one the child logged but never got to ack.
void assert_recovers_acked_state(const std::string& dir,
                                 const child_run& r) {
  auto rec = dyn::durable_store::recover(dir);
  EXPECT_GE(rec.graph_version, r.last_ack)
      << "recovery lost an acked batch";
  dyn::mutable_graph expect = simulate(rec.graph_version);
  EXPECT_EQ(edges_of(rec.g), edges_of(expect));
  EXPECT_EQ(rec.graph_version, expect.version());
  io::validate_graph(rec.g, dir + " (crash harness)");
}

}  // namespace

TEST_F(DurabilityFailpointTest, CleanChildRunThenRecoverIsExact) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempDirectory d("crash_clean");
  child_run r = run_child(d.path(), 10, "");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.last_ack, 10u);
  auto rec = dyn::durable_store::recover(d.path());
  EXPECT_EQ(rec.graph_version, 10u);
  EXPECT_EQ(edges_of(rec.g), edges_of(simulate(10)));
}

TEST_F(DurabilityFailpointTest, KillAtWalAppend) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  for (int after : {0, 3, 7}) {
    TempDirectory d("crash_append_" + std::to_string(after));
    child_run r = run_child(d.path(), 10,
                            "wal.append=crash,after=" + std::to_string(after));
    ASSERT_EQ(r.exit_code, fp::kCrashExitCode) << "after=" << after;
    EXPECT_EQ(r.last_ack, static_cast<uint64_t>(after)) << "after=" << after;
    assert_recovers_acked_state(d.path(), r);
  }
}

TEST_F(DurabilityFailpointTest, KillAtWalFsync) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  for (int after : {0, 2, 6}) {
    TempDirectory d("crash_fsync_" + std::to_string(after));
    child_run r = run_child(d.path(), 10,
                            "wal.fsync=crash,after=" + std::to_string(after));
    ASSERT_EQ(r.exit_code, fp::kCrashExitCode) << "after=" << after;
    assert_recovers_acked_state(d.path(), r);
  }
}

TEST_F(DurabilityFailpointTest, KillAtCheckpointWrite) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // Evaluation 0 of the site is the initial checkpoint in
  // durable_store::create; each later checkpoint (every 4 batches in the
  // child) evaluates twice — before the temp write, then between the
  // rename and the WAL reset. after=1/2 hit the first auto-checkpoint's
  // two windows, 3/4 the second's.
  for (int after : {1, 2, 3, 4}) {
    TempDirectory d("crash_ckpt_" + std::to_string(after));
    child_run r = run_child(
        d.path(), 10, "checkpoint.write=crash,after=" + std::to_string(after));
    ASSERT_EQ(r.exit_code, fp::kCrashExitCode) << "after=" << after;
    EXPECT_GE(r.last_ack, 3u) << "after=" << after;  // died at a checkpoint
    assert_recovers_acked_state(d.path(), r);
  }
  // after=0 dies inside create() itself, before anything durable exists:
  // nothing was acked, and the directory holds no state to recover.
  TempDirectory d0("crash_ckpt_0");
  child_run r0 = run_child(d0.path(), 10, "checkpoint.write=crash,after=0");
  ASSERT_EQ(r0.exit_code, fp::kCrashExitCode);
  EXPECT_EQ(r0.last_ack, 0u);
  EXPECT_FALSE(dyn::durable_store::has_state(d0.path()));
}

TEST_F(DurabilityFailpointTest, KillDuringRecoveryReplay) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempDirectory d("crash_replay");
  // First run: die mid-append, leaving a WAL tail to replay.
  child_run first = run_child(d.path(), 10, "wal.append=crash,after=6");
  ASSERT_EQ(first.exit_code, fp::kCrashExitCode);
  // Second run: die *during* the recovery replay itself.
  child_run second = run_child(d.path(), 10, "recovery.replay=crash,after=1");
  ASSERT_EQ(second.exit_code, fp::kCrashExitCode);
  EXPECT_FALSE(second.saw_recovered);  // died before recovery completed
  // Third run, no faults: recovery must still reconstruct everything the
  // first child acked — a crash during replay is read-only and loses
  // nothing.
  child_run third = run_child(d.path(), 3, "");
  ASSERT_EQ(third.exit_code, 0);
  EXPECT_TRUE(third.saw_recovered);
  EXPECT_GE(third.recovered_at, first.last_ack);
  assert_recovers_acked_state(d.path(), third);
}

TEST_F(DurabilityFailpointTest, KillUnderIntervalFsyncLosesOnlyUnsynced) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempDirectory d("crash_interval");
  // Under fsync=interval an acked batch may legitimately be lost (its
  // record never reached disk) — but whatever IS recovered must still be
  // an exact prefix of the true history.
  child_run r = run_child(d.path(), 10, "wal.append=crash,after=7",
                          "interval");
  ASSERT_EQ(r.exit_code, fp::kCrashExitCode);
  auto rec = dyn::durable_store::recover(d.path());
  EXPECT_LE(rec.graph_version, r.last_ack);
  EXPECT_EQ(edges_of(rec.g), edges_of(simulate(rec.graph_version)));
}
