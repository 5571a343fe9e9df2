// Tests for the cloud substrate: chunked uploads, document store, ingestion.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cloud/chunking.hpp"
#include "cloud/docstore.hpp"
#include "cloud/ingest.hpp"
#include "common/rng.hpp"

namespace cl = crowdmap::cloud;
namespace cc = crowdmap::common;

namespace {

cl::Blob make_blob(std::size_t size, std::uint64_t seed = 1) {
  cl::Blob blob(size);
  cc::Rng rng(seed);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  return blob;
}

}  // namespace

// --------------------------------------------------------------- chunking ---

TEST(Checksum, StableAndSensitive) {
  const auto blob = make_blob(1000);
  EXPECT_EQ(cl::checksum(blob), cl::checksum(blob));
  auto tampered = blob;
  tampered[500] ^= 0xFF;
  EXPECT_NE(cl::checksum(blob), cl::checksum(tampered));
  EXPECT_EQ(cl::checksum({}), cl::checksum({}));
}

TEST(Chunking, SplitSizes) {
  const auto blob = make_blob(2500);
  const auto chunks = cl::split_into_chunks(blob, "u1", 1000);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].payload.size(), 1000u);
  EXPECT_EQ(chunks[2].payload.size(), 500u);
  for (const auto& c : chunks) {
    EXPECT_EQ(c.total, 3u);
    EXPECT_EQ(c.upload_id, "u1");
  }
}

TEST(Chunking, EmptyBlobOneChunk) {
  const auto chunks = cl::split_into_chunks({}, "u2", 1000);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].payload.empty());
}

TEST(Assembler, InOrderReassembly) {
  const auto blob = make_blob(2500, 3);
  const auto chunks = cl::split_into_chunks(blob, "u3", 1000);
  cl::ChunkAssembler assembler;
  for (const auto& c : chunks) assembler.accept(c);
  EXPECT_EQ(assembler.status(), cl::ChunkAssembler::Status::kComplete);
  EXPECT_EQ(*assembler.assemble(), blob);
}

TEST(Assembler, OutOfOrderReassembly) {
  const auto blob = make_blob(3500, 5);
  auto chunks = cl::split_into_chunks(blob, "u4", 1000);
  std::swap(chunks[0], chunks[3]);
  std::swap(chunks[1], chunks[2]);
  cl::ChunkAssembler assembler;
  for (const auto& c : chunks) assembler.accept(c);
  EXPECT_EQ(*assembler.assemble(), blob);
}

TEST(Assembler, DuplicatesTolerated) {
  const auto blob = make_blob(1500, 7);
  const auto chunks = cl::split_into_chunks(blob, "u5", 1000);
  cl::ChunkAssembler assembler;
  assembler.accept(chunks[0]);
  assembler.accept(chunks[0]);  // duplicate
  assembler.accept(chunks[1]);
  EXPECT_EQ(assembler.status(), cl::ChunkAssembler::Status::kComplete);
  EXPECT_EQ(*assembler.assemble(), blob);
}

TEST(Assembler, CorruptChunkRejectedButRetransmittable) {
  const auto blob = make_blob(1500, 9);
  auto chunks = cl::split_into_chunks(blob, "u6", 1000);
  auto damaged = chunks[0];
  damaged.payload[10] ^= 0xFF;  // corrupt without fixing the checksum
  cl::ChunkAssembler assembler;
  EXPECT_EQ(assembler.accept(damaged), cl::ChunkAssembler::Status::kRejected);
  // The buffer survives the reject: a clean retransmission completes it.
  EXPECT_EQ(assembler.status(), cl::ChunkAssembler::Status::kPending);
  assembler.accept(chunks[1]);
  EXPECT_EQ(assembler.accept(chunks[0]),
            cl::ChunkAssembler::Status::kComplete);
  EXPECT_EQ(*assembler.assemble(), blob);
}

TEST(Assembler, IdenticalDuplicateReportedAsDuplicate) {
  const auto blob = make_blob(1500, 21);
  const auto chunks = cl::split_into_chunks(blob, "u8", 1000);
  cl::ChunkAssembler assembler;
  EXPECT_EQ(assembler.accept(chunks[0]), cl::ChunkAssembler::Status::kPending);
  EXPECT_EQ(assembler.accept(chunks[0]),
            cl::ChunkAssembler::Status::kDuplicate);
  EXPECT_EQ(assembler.received(), 1u);
  EXPECT_EQ(assembler.accept(chunks[1]),
            cl::ChunkAssembler::Status::kComplete);
  EXPECT_EQ(*assembler.assemble(), blob);
}

TEST(Assembler, ConflictingDuplicateRejected) {
  const auto chunks = cl::split_into_chunks(make_blob(1500, 23), "u9", 1000);
  cl::ChunkAssembler assembler;
  assembler.accept(chunks[0]);
  // Same index, different (validly checksummed) payload: refuse to pick.
  auto conflicting = chunks[0];
  conflicting.payload[0] ^= 0xFF;
  conflicting.payload_checksum = cl::checksum(conflicting.payload);
  EXPECT_EQ(assembler.accept(conflicting),
            cl::ChunkAssembler::Status::kRejected);
  EXPECT_EQ(assembler.received(), 1u);
}

TEST(Assembler, OverlappingShortFinalChunk) {
  // A final chunk shorter than the chunk size must land at its own offset
  // and never bleed into a neighbor.
  const auto blob = make_blob(1001, 25);  // final chunk carries one byte
  const auto chunks = cl::split_into_chunks(blob, "u10", 1000);
  ASSERT_EQ(chunks.size(), 2u);
  ASSERT_EQ(chunks[1].payload.size(), 1u);
  cl::ChunkAssembler assembler;
  assembler.accept(chunks[1]);  // short tail first
  assembler.accept(chunks[0]);
  EXPECT_EQ(assembler.status(), cl::ChunkAssembler::Status::kComplete);
  EXPECT_EQ(*assembler.assemble(), blob);
}

TEST(Assembler, ZeroLengthChunkRoundTrips) {
  // An empty upload is legal: one zero-length, checksummed chunk.
  const auto chunks = cl::split_into_chunks({}, "u11", 1000);
  ASSERT_EQ(chunks.size(), 1u);
  cl::ChunkAssembler assembler;
  EXPECT_EQ(assembler.accept(chunks[0]),
            cl::ChunkAssembler::Status::kComplete);
  EXPECT_TRUE(assembler.assemble()->empty());
}

TEST(Assembler, IndexOutOfRangeIsStructuralCorruption) {
  cl::Chunk c;
  c.index = 5;
  c.total = 2;  // index >= total: the framing itself is broken
  c.payload_checksum = cl::checksum(c.payload);
  cl::ChunkAssembler assembler;
  EXPECT_EQ(assembler.accept(c), cl::ChunkAssembler::Status::kCorrupt);
  EXPECT_EQ(assembler.status(), cl::ChunkAssembler::Status::kCorrupt);
}

TEST(Assembler, MissingIndicesTracksHoles) {
  const auto chunks = cl::split_into_chunks(make_blob(3500, 27), "u12", 1000);
  ASSERT_EQ(chunks.size(), 4u);
  cl::ChunkAssembler assembler;
  EXPECT_TRUE(assembler.missing_indices().empty());  // nothing known yet
  assembler.accept(chunks[2]);
  assembler.accept(chunks[0]);
  EXPECT_EQ(assembler.missing_indices(),
            (std::vector<std::uint32_t>{1, 3}));
  assembler.accept(chunks[1]);
  assembler.accept(chunks[3]);
  EXPECT_TRUE(assembler.missing_indices().empty());  // complete
}

TEST(Assembler, FrameMismatchRejected) {
  cl::Chunk c1;
  c1.index = 0;
  c1.total = 2;
  c1.payload_checksum = cl::checksum(c1.payload);
  cl::Chunk c2;
  c2.index = 1;
  c2.total = 3;  // inconsistent total
  c2.payload_checksum = cl::checksum(c2.payload);
  cl::ChunkAssembler assembler;
  assembler.accept(c1);
  EXPECT_EQ(assembler.accept(c2), cl::ChunkAssembler::Status::kCorrupt);
}

TEST(Assembler, IncompleteNotAssemblable) {
  const auto chunks = cl::split_into_chunks(make_blob(3000, 11), "u7", 1000);
  cl::ChunkAssembler assembler;
  assembler.accept(chunks[0]);
  EXPECT_EQ(assembler.status(), cl::ChunkAssembler::Status::kPending);
  EXPECT_FALSE(assembler.assemble().has_value());
}

// --------------------------------------------------------------- docstore ---

TEST(DocStore, PutGetErase) {
  cl::DocumentStore store;
  cl::Document doc;
  doc.id = "d1";
  doc.building = "Lab1";
  doc.floor = 2;
  doc.payload = make_blob(100);
  EXPECT_TRUE(store.put(doc));
  EXPECT_FALSE(store.put(doc));  // replace
  ASSERT_TRUE(store.get("d1").has_value());
  EXPECT_EQ(store.get("d1")->floor, 2);
  EXPECT_FALSE(store.get("missing").has_value());
  EXPECT_TRUE(store.erase("d1"));
  EXPECT_FALSE(store.erase("d1"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(DocStore, FloorIndex) {
  cl::DocumentStore store;
  for (int i = 0; i < 5; ++i) {
    cl::Document doc;
    doc.id = std::string("d").append(std::to_string(i));
    doc.building = i < 3 ? "Lab1" : "Lab2";
    doc.floor = 1;
    store.put(doc);
  }
  EXPECT_EQ(store.ids_for_floor("Lab1", 1).size(), 3u);
  EXPECT_EQ(store.ids_for_floor("Lab2", 1).size(), 2u);
  EXPECT_TRUE(store.ids_for_floor("Lab1", 9).empty());
  store.erase("d0");
  EXPECT_EQ(store.ids_for_floor("Lab1", 1).size(), 2u);
}

TEST(DocStore, ReplaceUpdatesIndex) {
  cl::DocumentStore store;
  cl::Document doc;
  doc.id = "d1";
  doc.building = "Lab1";
  doc.floor = 1;
  store.put(doc);
  doc.floor = 2;  // moves floors
  store.put(doc);
  EXPECT_TRUE(store.ids_for_floor("Lab1", 1).empty());
  EXPECT_EQ(store.ids_for_floor("Lab1", 2).size(), 1u);
}

TEST(DocStore, TotalBytes) {
  cl::DocumentStore store;
  cl::Document doc;
  doc.id = "d1";
  doc.payload = make_blob(123);
  store.put(doc);
  EXPECT_EQ(store.total_bytes(), 123u);
}

TEST(DocStore, QuarantineRemovesFromMainCollection) {
  cl::DocumentStore store;
  cl::Document doc;
  doc.id = "bad";
  doc.building = "Lab1";
  doc.floor = 1;
  store.put(doc);
  store.quarantine(doc, "checksum_mismatch");
  // Invisible to normal queries...
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.get("bad").has_value());
  EXPECT_TRUE(store.ids_for_floor("Lab1", 1).empty());
  // ...but auditable with its reason.
  EXPECT_EQ(store.quarantined_count(), 1u);
  EXPECT_EQ(store.quarantined_ids(), std::vector<std::string>{"bad"});
  const auto held = store.get_quarantined("bad");
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->metadata.at("quarantine_reason"), "checksum_mismatch");
}

TEST(DocStore, EraseRemovesIdFromFloorIndex) {
  // Regression: an erased id must vanish from ids_for_floor(), not linger as
  // a dangling index entry pointing at a deleted document.
  cl::DocumentStore store;
  for (int i = 0; i < 3; ++i) {
    cl::Document doc;
    doc.id = "d" + std::to_string(i);
    doc.building = "Lab1";
    doc.floor = 1;
    store.put(doc);
  }
  EXPECT_TRUE(store.erase("d1"));
  const auto ids = store.ids_for_floor("Lab1", 1);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), "d1"), 0);
  // Every surviving index entry must still resolve.
  for (const auto& id : ids) EXPECT_TRUE(store.get(id).has_value());
}

TEST(DocStore, ReplaceAcrossBuildingsLeavesNoStaleIndexEntry) {
  // Regression: replacing a document whose (building, floor) changed must
  // drop the old index entry — a floor query for the old location finding
  // the id would hand the reconstruction a document from another building.
  cl::DocumentStore store;
  cl::Document doc;
  doc.id = "d1";
  doc.building = "Lab1";
  doc.floor = 3;
  EXPECT_TRUE(store.put(doc));
  doc.building = "Gym";  // moves buildings, not just floors
  doc.floor = 1;
  EXPECT_FALSE(store.put(doc));
  EXPECT_TRUE(store.ids_for_floor("Lab1", 3).empty());
  ASSERT_EQ(store.ids_for_floor("Gym", 1).size(), 1u);
  EXPECT_EQ(store.ids_for_floor("Gym", 1)[0], "d1");
  EXPECT_EQ(store.size(), 1u);
}

TEST(DocStore, PutReturnValueContract) {
  // put() returns true exactly when the id was not in the *main* collection
  // (fresh insert), false when it replaced an existing document.
  cl::DocumentStore store;
  cl::Document doc;
  doc.id = "d1";
  doc.building = "Lab1";
  doc.floor = 1;
  EXPECT_TRUE(store.put(doc));    // fresh
  EXPECT_FALSE(store.put(doc));   // replace, same coordinates
  doc.floor = 2;
  EXPECT_FALSE(store.put(doc));   // replace, moved coordinates
  EXPECT_TRUE(store.erase("d1"));
  EXPECT_TRUE(store.put(doc));    // fresh again after erase
}

TEST(DocStore, PutAfterQuarantineKeepsAuditTrail) {
  // Quarantined-id collision: a re-upload of a quarantined id inserts into
  // the main collection (returns true — the main collection had no such id)
  // and never expunges the quarantine record. Both views then answer.
  cl::DocumentStore store;
  cl::Document bad;
  bad.id = "u1";
  bad.building = "Lab1";
  bad.floor = 1;
  store.quarantine(bad, "checksum_mismatch");
  cl::Document retry;
  retry.id = "u1";
  retry.building = "Lab1";
  retry.floor = 1;
  retry.payload = make_blob(10);
  EXPECT_TRUE(store.put(retry));
  EXPECT_TRUE(store.get("u1").has_value());
  ASSERT_TRUE(store.get_quarantined("u1").has_value());
  EXPECT_EQ(store.get_quarantined("u1")->metadata.at("quarantine_reason"),
            "checksum_mismatch");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.quarantined_count(), 1u);
}

namespace {

/// Records the journal callback stream for assertions.
struct RecordingJournal final : cl::DocumentStore::Journal {
  std::vector<std::string> ops;
  void on_put(const cl::Document& doc) override {
    ops.push_back("put:" + doc.id);
  }
  void on_erase(const std::string& id) override { ops.push_back("erase:" + id); }
  void on_quarantine(const cl::Document& doc,
                     const std::string& reason) override {
    ops.push_back("quarantine:" + doc.id + ":" + reason);
  }
};

}  // namespace

TEST(DocStore, JournalSeesEveryMutationInOrder) {
  cl::DocumentStore store;
  RecordingJournal journal;
  store.set_journal(&journal);
  cl::Document doc;
  doc.id = "d1";
  doc.building = "Lab1";
  doc.floor = 1;
  store.put(doc);
  store.put(doc);  // replace journals too: replay must reproduce the replace
  store.quarantine(doc, "bad");
  store.erase("missing");  // no-op mutations are not journaled
  doc.id = "d2";
  store.put(doc);
  store.erase("d2");
  store.set_journal(nullptr);
  store.put(doc);  // detached: silent
  const std::vector<std::string> expected{"put:d1", "put:d1",
                                          "quarantine:d1:bad", "put:d2",
                                          "erase:d2"};
  EXPECT_EQ(journal.ops, expected);
}

TEST(DocStore, ExportedStateIsSortedAndConsistent) {
  cl::DocumentStore store;
  for (const char* id : {"zeta", "alpha", "mid"}) {
    cl::Document doc;
    doc.id = id;
    doc.building = "Lab1";
    doc.floor = 1;
    store.put(doc);
  }
  cl::Document bad;
  bad.id = "broken";
  store.quarantine(bad, "r");
  bool ran = false;
  store.with_exported_state([&](const std::vector<cl::Document>& docs,
                                const std::vector<cl::Document>& quarantined) {
    ran = true;
    ASSERT_EQ(docs.size(), 3u);
    EXPECT_EQ(docs[0].id, "alpha");
    EXPECT_EQ(docs[1].id, "mid");
    EXPECT_EQ(docs[2].id, "zeta");
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(quarantined[0].id, "broken");
  });
  EXPECT_TRUE(ran);
  const auto exported = store.export_documents();
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_EQ(exported[0].id, "alpha");
}

// ----------------------------------------------------------------- ingest ---

TEST(Ingest, HappyPathCompletesUpload) {
  cl::DocumentStore store;
  std::atomic<int> completions{0};
  cl::IngestService ingest(store, [&completions](const cl::Document& doc) {
    EXPECT_EQ(doc.building, "Lab1");
    completions.fetch_add(1);
  });
  ingest.open_session("up1", "Lab1", 3);
  const auto blob = make_blob(2500, 13);
  for (const auto& c : cl::split_into_chunks(blob, "up1", 1000)) {
    ingest.deliver(c);
  }
  EXPECT_EQ(completions.load(), 1);
  ASSERT_TRUE(store.get("up1").has_value());
  EXPECT_EQ(store.get("up1")->payload, blob);
  EXPECT_EQ(store.get("up1")->floor, 3);
  const auto stats = ingest.stats();
  EXPECT_EQ(stats.uploads_completed, 1u);
  EXPECT_EQ(stats.chunks_received, 3u);
}

TEST(Ingest, UnknownSessionRejectedAndCountedSeparately) {
  cl::DocumentStore store;
  cl::IngestService ingest(store);
  cl::Chunk c;
  c.upload_id = "ghost";
  c.total = 1;
  c.payload_checksum = cl::checksum(c.payload);
  EXPECT_EQ(ingest.deliver(c), cl::IngestStatus::kRejected);
  const auto stats = ingest.stats();
  EXPECT_EQ(stats.uploads_rejected, 1u);
  EXPECT_EQ(stats.unknown_session, 1u);
  // The dedicated counter is visible through the registry under its own name.
  EXPECT_EQ(ingest.metrics_registry()->snapshot().value(
                "crowdmap_ingest_unknown_session_total"),
            1.0);
}

TEST(Ingest, DamagedChunkSurvivableViaRetransmit) {
  cl::DocumentStore store;
  cl::IngestService ingest(store);
  ingest.open_session("up2", "Lab1", 1);
  const auto blob = make_blob(1500, 15);
  auto chunks = cl::split_into_chunks(blob, "up2", 1000);
  auto damaged = chunks[0];
  damaged.payload[0] ^= 0xFF;
  // The damaged chunk is rejected but the session survives.
  EXPECT_EQ(ingest.deliver(damaged), cl::IngestStatus::kRejected);
  EXPECT_EQ(ingest.deliver(chunks[1]), cl::IngestStatus::kAccepted);
  // Retransmit protocol: ask what is missing, re-send it clean.
  EXPECT_EQ(ingest.missing_chunks("up2"),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(ingest.deliver(chunks[0]), cl::IngestStatus::kUploadComplete);
  ASSERT_TRUE(store.get("up2").has_value());
  EXPECT_EQ(store.get("up2")->payload, blob);
  const auto stats = ingest.stats();
  EXPECT_EQ(stats.chunks_rejected, 1u);
  EXPECT_EQ(stats.retransmit_requests, 1u);
  EXPECT_EQ(stats.uploads_completed, 1u);
}

TEST(Ingest, StructuralCorruptionQuarantinesUpload) {
  cl::DocumentStore store;
  cl::IngestService ingest(store);
  ingest.open_session("up3", "Lab1", 1);
  cl::Chunk broken;
  broken.upload_id = "up3";
  broken.index = 9;
  broken.total = 2;  // index >= total: unsalvageable framing
  broken.payload_checksum = cl::checksum(broken.payload);
  EXPECT_EQ(ingest.deliver(broken), cl::IngestStatus::kRejected);
  // The session is gone and the upload is auditable in quarantine.
  EXPECT_EQ(ingest.pending_sessions(), 0u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.quarantined_count(), 1u);
  const auto doc = store.get_quarantined("up3");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->metadata.at("quarantine_reason"), "structural_corruption");
}

TEST(Ingest, RetransmitBudgetExhaustionExpiresSession) {
  cl::DocumentStore store;
  cl::IngestConfig config;
  config.max_retransmit_rounds = 2;
  cl::IngestService ingest(store, {}, config);
  ingest.open_session("up4", "Lab1", 1);
  const auto chunks = cl::split_into_chunks(make_blob(2500, 29), "up4", 1000);
  ingest.deliver(chunks[0]);
  EXPECT_EQ(ingest.missing_chunks("up4").size(), 2u);  // round 1
  EXPECT_EQ(ingest.missing_chunks("up4").size(), 2u);  // round 2
  // Budget spent: the session is expired and quarantined.
  EXPECT_TRUE(ingest.missing_chunks("up4").empty());
  EXPECT_EQ(ingest.pending_sessions(), 0u);
  EXPECT_EQ(store.quarantined_count(), 1u);
  EXPECT_EQ(store.get_quarantined("up4")->metadata.at("quarantine_reason"),
            "retransmit_budget_exhausted");
  const auto stats = ingest.stats();
  EXPECT_EQ(stats.sessions_expired, 1u);
  EXPECT_EQ(stats.retransmit_requests, 2u);
}

TEST(Ingest, IdleSessionExpiresOnLogicalTimeout) {
  cl::DocumentStore store;
  cl::IngestConfig config;
  config.session_timeout_ticks = 4;  // expire quickly: 1 tick per chunk
  cl::IngestService ingest(store, {}, config);
  ingest.open_session("stale", "Lab1", 1);
  const auto stale_chunks =
      cl::split_into_chunks(make_blob(2000, 31), "stale", 1000);
  ingest.deliver(stale_chunks[0]);  // 1 of 2 delivered, then silence

  ingest.open_session("busy", "Lab1", 1);
  const auto busy_chunks =
      cl::split_into_chunks(make_blob(9000, 33), "busy", 1000);
  for (const auto& c : busy_chunks) ingest.deliver(c);  // 9 ticks pass

  // The stale session aged out during the busy upload's traffic.
  EXPECT_EQ(ingest.pending_sessions(), 0u);
  EXPECT_EQ(ingest.stats().sessions_expired, 1u);
  EXPECT_EQ(store.quarantined_count(), 1u);
  EXPECT_EQ(store.get_quarantined("stale")->metadata.at("chunks_received"),
            "1");
  // The busy upload itself landed untouched.
  EXPECT_TRUE(store.get("busy").has_value());
}

TEST(Ingest, ConcurrentUploadsInterleaved) {
  cl::DocumentStore store;
  cl::IngestService ingest(store);
  const auto blob_a = make_blob(2000, 17);
  const auto blob_b = make_blob(3000, 19);
  ingest.open_session("a", "Lab1", 1);
  ingest.open_session("b", "Lab1", 1);
  const auto chunks_a = cl::split_into_chunks(blob_a, "a", 1000);
  const auto chunks_b = cl::split_into_chunks(blob_b, "b", 1000);
  // Interleave.
  ingest.deliver(chunks_a[0]);
  ingest.deliver(chunks_b[0]);
  ingest.deliver(chunks_b[1]);
  ingest.deliver(chunks_a[1]);
  ingest.deliver(chunks_b[2]);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("a")->payload, blob_a);
  EXPECT_EQ(store.get("b")->payload, blob_b);
}

TEST(Ingest, ParallelDeliveryThreadSafe) {
  cl::DocumentStore store;
  cl::IngestService ingest(store);
  constexpr int kUploads = 8;
  std::vector<cl::Blob> blobs;
  std::vector<std::vector<cl::Chunk>> chunk_sets;
  for (int u = 0; u < kUploads; ++u) {
    const std::string id = std::string("p").append(std::to_string(u));
    ingest.open_session(id, "Lab1", 1);
    blobs.push_back(make_blob(5000, 100 + static_cast<std::uint64_t>(u)));
    chunk_sets.push_back(cl::split_into_chunks(blobs.back(), id, 700));
  }
  std::vector<std::thread> threads;
  threads.reserve(kUploads);
  for (int u = 0; u < kUploads; ++u) {
    threads.emplace_back([&ingest, &chunk_sets, u] {
      for (const auto& c : chunk_sets[static_cast<std::size_t>(u)]) {
        ingest.deliver(c);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kUploads));
  for (int u = 0; u < kUploads; ++u) {
    const std::string id = std::string("p").append(std::to_string(u));
    const auto doc = store.get(id);
    ASSERT_TRUE(doc.has_value()) << "upload " << id << " missing";
    EXPECT_EQ(doc->payload, blobs[static_cast<std::size_t>(u)]);
  }
}

TEST(Ingest, NoSessionExpiresWhileChunksArriveWithinTimeout) {
  // Every session is opened before the first chunk and the clock ticks once
  // per delivered chunk, so no session can sit idle for more ticks than there
  // are chunks in total: a timeout of that many ticks must never fire, under
  // any interleaving of the senders.
  constexpr int kSessions = 8;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<cl::Blob> blobs;
    std::vector<std::vector<cl::Chunk>> chunk_sets;
    std::uint64_t total_chunks = 0;
    for (int s = 0; s < kSessions; ++s) {
      const std::string id = std::string("s").append(std::to_string(s));
      // Uneven sizes so senders finish at different times.
      blobs.push_back(make_blob(1500 + 700 * static_cast<std::size_t>(s),
                                static_cast<std::uint64_t>(round * 100 + s)));
      chunk_sets.push_back(cl::split_into_chunks(blobs.back(), id, 300));
      total_chunks += chunk_sets.back().size();
    }
    cl::DocumentStore store;
    cl::IngestConfig config;
    config.session_timeout_ticks = total_chunks;
    cl::IngestService ingest(store, {}, config);
    for (int s = 0; s < kSessions; ++s) {
      ingest.open_session(std::string("s").append(std::to_string(s)), "Lab1",
                          1);
    }
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&ingest, &chunk_sets, s] {
        for (const auto& c : chunk_sets[static_cast<std::size_t>(s)]) {
          ingest.deliver(c);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(ingest.stats().sessions_expired, 0u) << "round " << round;
    ASSERT_EQ(store.size(), static_cast<std::size_t>(kSessions));
    for (int s = 0; s < kSessions; ++s) {
      const auto doc = store.get(std::string("s").append(std::to_string(s)));
      ASSERT_TRUE(doc.has_value());
      EXPECT_EQ(doc->payload, blobs[static_cast<std::size_t>(s)]);
    }
  }
}
