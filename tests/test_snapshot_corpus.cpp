// The checked-in wire format: every fuzz/corpus/*.snap (one valid snapshot
// per registered kind) loads, re-saves to exactly its own bytes, and
// classifies the same labels per shot and through the engine's batched
// path. Fresh-train round trips (test_snapshot.cpp) cannot catch a change
// that alters what save writes and what load expects together; these
// files can.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pipeline/readout_engine.h"
#include "pipeline/snapshot.h"

namespace mlqr {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  const std::filesystem::path dir =
      std::filesystem::path(MLQR_SOURCE_DIR) / "fuzz" / "corpus";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".snap") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(SnapshotCorpus, EveryKindLoadsAndResavesByteIdentical) {
  std::set<int> kinds;
  for (const std::filesystem::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const std::string bytes = read_file(path);
    ASSERT_FALSE(bytes.empty());
    std::stringstream in(bytes);
    const BackendSnapshot snap = load_backend(in);
    kinds.insert(static_cast<int>(snap.kind()));
    std::stringstream out;
    snap.save(out);
    EXPECT_TRUE(out.str() == bytes)
        << "re-saved " << out.str().size() << " bytes differ from the "
        << bytes.size() << " checked in";
  }
  // One snapshot per kind byte, kFloat through kInt8.
  EXPECT_EQ(kinds, (std::set<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SnapshotCorpus, EveryKindClassifiesIdenticallyPerShotAndBatched) {
  Rng rng(20261017);
  for (const std::filesystem::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    std::stringstream in(read_file(path));
    const BackendSnapshot snap = load_backend(in);
    const std::size_t nq = snap.num_qubits();
    std::vector<IqTrace> traces(37, IqTrace(snap.num_samples()));
    for (IqTrace& tr : traces)
      for (std::size_t t = 0; t < tr.size(); ++t) {
        tr.i[t] = static_cast<float>(rng.normal(0.0, 1.0));
        tr.q[t] = static_cast<float>(rng.normal(0.0, 1.0));
      }
    ReadoutEngine engine(snap.backend());
    const EngineBatch batch = engine.process_batch(traces);
    ASSERT_EQ(batch.labels.size(), traces.size() * nq);
    InferenceScratch scratch;
    std::vector<int> shot(nq);
    for (std::size_t s = 0; s < traces.size(); ++s) {
      snap.backend().classify_into(traces[s], scratch, shot);
      for (std::size_t q = 0; q < nq; ++q)
        EXPECT_EQ(batch.labels[s * nq + q], shot[q])
            << "shot " << s << " qubit " << q;
    }
  }
}

}  // namespace
}  // namespace mlqr
