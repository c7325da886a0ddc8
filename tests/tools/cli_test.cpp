// Integration tests for maabe-cli: drive the real binary through full
// workflows against a temporary keystore.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef MAABE_CLI_PATH
#error "MAABE_CLI_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    home_ = fs::temp_directory_path() /
            ("maabe-cli-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(home_);
    fs::create_directories(home_);
  }

  void TearDown() override { fs::remove_all(home_); }

  int run(const std::string& args) {
    const std::string cmd = std::string(MAABE_CLI_PATH) + " --home " +
                            home_.string() + " " + args + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  void write_file(const std::string& name, const std::string& content) {
    std::ofstream out(home_ / name);
    out << content;
  }

  std::string read_file(const std::string& name) {
    std::ifstream in(home_ / name);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static std::string read_path(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  fs::path home_;
};

TEST_F(CliTest, FullWorkflow) {
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor Nurse"), 0);
  ASSERT_EQ(run("add-authority Trial Researcher"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user alice"), 0);
  ASSERT_EQ(run("grant Med alice Doctor"), 0);
  ASSERT_EQ(run("grant Trial alice Researcher"), 0);
  ASSERT_EQ(run("issue-key Med alice hosp"), 0);
  ASSERT_EQ(run("issue-key Trial alice hosp"), 0);

  write_file("in.txt", "hello multi-authority world");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med AND Researcher@Trial\" " +
                (home_ / "in.txt").string()),
            0);
  ASSERT_EQ(run("decrypt alice f1 " + (home_ / "out.txt").string()), 0);
  EXPECT_EQ(read_file("out.txt"), "hello multi-authority world");
}

TEST_F(CliTest, AccessDeniedExitCode) {
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor Nurse"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user bob"), 0);
  ASSERT_EQ(run("grant Med bob Nurse"), 0);
  ASSERT_EQ(run("issue-key Med bob hosp"), 0);
  write_file("in.txt", "doctors only");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);
  EXPECT_EQ(run("decrypt bob f1 " + (home_ / "out.txt").string()), 2);
}

TEST_F(CliTest, RevocationAcrossInvocations) {
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user alice"), 0);
  ASSERT_EQ(run("add-user carol"), 0);
  ASSERT_EQ(run("grant Med alice Doctor"), 0);
  ASSERT_EQ(run("grant Med carol Doctor"), 0);
  ASSERT_EQ(run("issue-key Med alice hosp"), 0);
  ASSERT_EQ(run("issue-key Med carol hosp"), 0);
  write_file("in.txt", "ward census");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);

  ASSERT_EQ(run("decrypt alice f1 " + (home_ / "o1.txt").string()), 0);
  ASSERT_EQ(run("revoke Med alice Doctor"), 0);
  // Alice: denied. Carol: still works via the update key.
  EXPECT_EQ(run("decrypt alice f1 " + (home_ / "o2.txt").string()), 2);
  EXPECT_EQ(run("decrypt carol f1 " + (home_ / "o3.txt").string()), 0);
  EXPECT_EQ(read_file("o3.txt"), "ward census");
}

TEST_F(CliTest, RepeatedRevocationAdvancesTheOwnersRecord) {
  // The second epoch at Med finds the file only if the first one moved
  // the owner's persisted record to Med version 2.
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  for (const std::string uid : {"alice", "bob", "carol"}) {
    ASSERT_EQ(run("add-user " + uid), 0);
    ASSERT_EQ(run("grant Med " + uid + " Doctor"), 0);
    ASSERT_EQ(run("issue-key Med " + uid + " hosp"), 0);
  }
  write_file("in.txt", "ward census");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);

  ASSERT_EQ(run("revoke Med alice Doctor"), 0);
  EXPECT_EQ(run("decrypt alice f1 " + (home_ / "a1.txt").string()), 2);
  ASSERT_EQ(run("decrypt bob f1 " + (home_ / "b1.txt").string()), 0);
  EXPECT_EQ(read_file("b1.txt"), "ward census");
  ASSERT_EQ(run("decrypt carol f1 " + (home_ / "c1.txt").string()), 0);
  EXPECT_EQ(read_file("c1.txt"), "ward census");

  ASSERT_EQ(run("revoke Med bob Doctor"), 0);
  EXPECT_EQ(run("decrypt alice f1 " + (home_ / "a2.txt").string()), 2);
  EXPECT_EQ(run("decrypt bob f1 " + (home_ / "b2.txt").string()), 2);
  ASSERT_EQ(run("decrypt carol f1 " + (home_ / "c2.txt").string()), 0);
  EXPECT_EQ(read_file("c2.txt"), "ward census");
}

TEST_F(CliTest, UnreadableRecordFailsRevokeBeforeTheReKey) {
  // A record that does not decode (here truncated, as is one written
  // before records carried attributes and versions) stops the revoke
  // before the authority re-keys or any key or file changes.
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  for (const std::string uid : {"alice", "carol"}) {
    ASSERT_EQ(run("add-user " + uid), 0);
    ASSERT_EQ(run("grant Med " + uid + " Doctor"), 0);
    ASSERT_EQ(run("issue-key Med " + uid + " hosp"), 0);
  }
  write_file("in.txt", "ward census");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);

  const fs::path record = home_ / "owners" / "hosp" / "records" / "f1%2Fdata";
  const std::string intact = read_path(record);
  const auto put_record = [&](const std::string& bytes) {
    std::ofstream out(record, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  put_record(intact.substr(0, intact.size() - 1));
  EXPECT_EQ(run("revoke Med alice Doctor"), 1);
  EXPECT_EQ(run("decrypt alice f1 " + (home_ / "a1.txt").string()), 0);
  EXPECT_EQ(run("decrypt carol f1 " + (home_ / "c1.txt").string()), 0);

  put_record(intact);
  ASSERT_EQ(run("revoke Med alice Doctor"), 0);
  EXPECT_EQ(run("decrypt alice f1 " + (home_ / "a2.txt").string()), 2);
  ASSERT_EQ(run("decrypt carol f1 " + (home_ / "c2.txt").string()), 0);
  EXPECT_EQ(read_file("c2.txt"), "ward census");
}

TEST_F(CliTest, ErrorsAndUsage) {
  EXPECT_NE(run(""), 0);                           // usage
  EXPECT_NE(run("bogus-command"), 0);              // unknown command
  EXPECT_EQ(run("status"), 1);                     // not initialized
  ASSERT_EQ(run("init --test-curve"), 0);
  EXPECT_EQ(run("init --test-curve"), 1);          // double init
  EXPECT_EQ(run("add-authority"), 1);              // missing args
  EXPECT_EQ(run("add-user 'bad id'"), 1);          // invalid identifier
  EXPECT_EQ(run("grant NoAA nobody X"), 1);        // unknown authority
  EXPECT_EQ(run("decrypt nobody nofile out"), 1);  // unknown everything
  EXPECT_EQ(run("status"), 0);
}

TEST_F(CliTest, HybridCiphertextIdsSurviveTheKeystore) {
  // Regression: hybrid slot ct ids are "<file_id>/<component>"; the '/'
  // used to be rejected by Keystore::validate_id when the owner's
  // record was saved, breaking encrypt. The id must round-trip the
  // keystore (percent-encoded on disk) through encrypt, decrypt and a
  // revocation epoch.
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user alice"), 0);
  ASSERT_EQ(run("add-user carol"), 0);
  ASSERT_EQ(run("grant Med alice Doctor"), 0);
  ASSERT_EQ(run("grant Med carol Doctor"), 0);
  ASSERT_EQ(run("issue-key Med alice hosp"), 0);
  ASSERT_EQ(run("issue-key Med carol hosp"), 0);
  write_file("in.txt", "slot id has a slash");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);

  // The owner-side record for "f1/data" landed on disk as a
  // percent-encoded leaf, not a nested directory, and the owner keeps
  // no ciphertext copy.
  EXPECT_TRUE(fs::exists(home_ / "owners" / "hosp" / "records" / "f1%2Fdata"));
  EXPECT_FALSE(fs::exists(home_ / "owners" / "hosp" / "cts"));
  EXPECT_FALSE(fs::exists(home_ / "owners" / "hosp" / "records" / "f1" / "data"));

  ASSERT_EQ(run("decrypt alice f1 " + (home_ / "o1.txt").string()), 0);
  EXPECT_EQ(read_file("o1.txt"), "slot id has a slash");
  // Revocation must find the record under the encoded id too.
  ASSERT_EQ(run("revoke Med alice Doctor"), 0);
  EXPECT_EQ(run("decrypt alice f1 " + (home_ / "o2.txt").string()), 2);
  EXPECT_EQ(run("decrypt carol f1 " + (home_ / "o3.txt").string()), 0);
  EXPECT_EQ(read_file("o3.txt"), "slot id has a slash");
}

TEST_F(CliTest, DuplicateFileRejected) {
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  write_file("in.txt", "x");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);
  EXPECT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 1);
  EXPECT_EQ(run("inspect f1"), 0);
}

TEST_F(CliTest, ChaosFlagsDegradeTyped) {
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user alice"), 0);
  ASSERT_EQ(run("grant Med alice Doctor"), 0);
  ASSERT_EQ(run("issue-key Med alice hosp"), 0);
  write_file("in.txt", "chaos payload");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);

  // A channel that drops everything: the upload exhausts its retries and
  // exits with the generic (typed-error) code, and nothing is stored.
  write_file("in2.txt", "never arrives");
  EXPECT_EQ(run("--drop-rate 1.0 encrypt hosp f2 \"Doctor@Med\" " +
                (home_ / "in2.txt").string()),
            1);
  EXPECT_EQ(run("inspect f2"), 1);

  // Corruption on the download leg is caught by the frame checksum: a
  // typed failure, never wrong plaintext on disk.
  EXPECT_EQ(run("--corrupt-rate 1.0 --fault-seed 9 decrypt alice f1 " +
                (home_ / "bad.txt").string()),
            1);
  EXPECT_FALSE(fs::exists(home_ / "bad.txt"));

  // Moderate faults: retries recover, the plaintext is exact, and
  // --transport-stats reporting does not disturb the exit code.
  EXPECT_EQ(run("--drop-rate 0.4 --fault-seed 3 --transport-stats decrypt "
                "alice f1 " +
                (home_ / "out.txt").string()),
            0);
  EXPECT_EQ(read_file("out.txt"), "chaos payload");
}

TEST_F(CliTest, ChaosFlagsValidated) {
  EXPECT_EQ(run("--drop-rate 1.5 status"), 64);
  EXPECT_EQ(run("--corrupt-rate banana status"), 64);
}

TEST_F(CliTest, ClusterFlagsValidated) {
  EXPECT_EQ(run("--nodes 0 status"), 64);
  EXPECT_EQ(run("--replication banana status"), 64);
}

TEST_F(CliTest, ClusterPlacementReplicatesAndSurvivesShardLoss) {
  const std::string c = "--nodes 3 --replication 2 ";
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user alice"), 0);
  ASSERT_EQ(run("grant Med alice Doctor"), 0);
  ASSERT_EQ(run("issue-key Med alice hosp"), 0);
  write_file("in.txt", "replicated ward notes");
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4"};
  for (const std::string& f : files)
    ASSERT_EQ(run(c + "encrypt hosp " + f + " \"Doctor@Med\" " +
                  (home_ / "in.txt").string()),
              0);

  // Every file lands on exactly R=2 node shards, byte-identical copies,
  // and never in the legacy server/ root.
  for (const std::string& f : files) {
    EXPECT_FALSE(fs::exists(home_ / "server" / f)) << f;
    std::vector<fs::path> copies;
    for (int n = 0; n < 3; ++n) {
      const fs::path p = home_ / "server" / ("node-" + std::to_string(n)) / f;
      if (fs::exists(p)) copies.push_back(p);
    }
    ASSERT_EQ(copies.size(), 2u) << f;
    EXPECT_EQ(read_path(copies[0]), read_path(copies[1])) << f;
  }

  ASSERT_EQ(run(c + "decrypt alice f1 " + (home_ / "o1.txt").string()), 0);
  EXPECT_EQ(read_file("o1.txt"), "replicated ward notes");
  ASSERT_EQ(run(c + "status"), 0);
  ASSERT_EQ(run(c + "inspect f1"), 0);

  // Losing one replica shard does not lose the file: the download fails
  // over to the surviving replica.
  for (int n = 0; n < 3; ++n) {
    const fs::path p = home_ / "server" / ("node-" + std::to_string(n)) / "f1";
    if (fs::exists(p)) {
      fs::remove(p);
      break;
    }
  }
  ASSERT_EQ(run(c + "decrypt alice f1 " + (home_ / "o2.txt").string()), 0);
  EXPECT_EQ(read_file("o2.txt"), "replicated ward notes");

  // Revocation re-encrypts through the ring (and re-replicates the
  // shard deleted above); the revoked user is locked out after.
  ASSERT_EQ(run(c + "revoke Med alice Doctor"), 0);
  EXPECT_EQ(run(c + "decrypt alice f1 " + (home_ / "o3.txt").string()), 2);
}

TEST_F(CliTest, TelemetryExportFlags) {
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user alice"), 0);
  ASSERT_EQ(run("grant Med alice Doctor"), 0);
  ASSERT_EQ(run("issue-key Med alice hosp"), 0);
  write_file("in.txt", "observed payload");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);

  ASSERT_EQ(run("--metrics-out " + (home_ / "metrics.prom").string() +
                " --trace-out " + (home_ / "trace.jsonl").string() +
                " decrypt alice f1 " + (home_ / "out.txt").string()),
            0);
  EXPECT_EQ(read_file("out.txt"), "observed payload");

  // The metrics file is a parseable Prometheus text snapshot: every
  // non-comment line is "<series> <integer>".
  const std::string prom = read_file("metrics.prom");
  ASSERT_FALSE(prom.empty());
  uint64_t pairings = 0, final_exps = 0;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    size_t parsed = 0;
    (void)std::stoll(line.substr(sp + 1), &parsed);  // throws on garbage
    EXPECT_EQ(parsed, line.size() - sp - 1) << line;
    if (line.compare(0, sp, "maabe_engine_pairings_total") == 0)
      pairings = std::stoull(line.substr(sp + 1));
    if (line.compare(0, sp, "maabe_engine_final_exps_total") == 0)
      final_exps = std::stoull(line.substr(sp + 1));
  }
  EXPECT_NE(prom.find("# TYPE maabe_engine_pairings_total counter"),
            std::string::npos);
  // A decrypt evaluates the access structure: "Doctor@Med" (l = 1,
  // n_A = 1) costs 2l + n_A = 3 pairings in one product, which pays one
  // shared final exponentiation.
  EXPECT_EQ(pairings, 3u);
  EXPECT_EQ(final_exps, 1u);
  EXPECT_NE(prom.find("# TYPE maabe_engine_pair_batch_ns histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("maabe_engine_pair_batch_ns_count 1\n"), std::string::npos);

  // The trace file holds the command's root span with its exit code.
  const std::string trace = read_file("trace.jsonl");
  EXPECT_NE(trace.find("\"name\":\"cli.decrypt\""), std::string::npos);
  EXPECT_NE(trace.find("\"exit_code\":\"0\""), std::string::npos);
  // The CLI drives the transport directly, so the root's children are
  // the send/frame spans of the server fetch.
  EXPECT_NE(trace.find("\"name\":\"transport.send\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"transport.frame\""), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\":\"delivered\""), std::string::npos);
}

TEST_F(CliTest, TelemetryExportSurvivesCommandFailure) {
  ASSERT_EQ(run("init --test-curve"), 0);
  ASSERT_EQ(run("add-authority Med Doctor"), 0);
  ASSERT_EQ(run("add-owner hosp"), 0);
  ASSERT_EQ(run("add-user bob"), 0);
  ASSERT_EQ(run("grant Med bob Doctor"), 0);
  ASSERT_EQ(run("issue-key Med bob hosp"), 0);
  write_file("in.txt", "x");
  ASSERT_EQ(run("encrypt hosp f1 \"Doctor@Med\" " + (home_ / "in.txt").string()), 0);
  // Revoking bob makes his decrypt fail typed (exit 2); the metrics
  // snapshot must still be written on the error path.
  ASSERT_EQ(run("revoke Med bob Doctor"), 0);
  EXPECT_EQ(run("--metrics-out " + (home_ / "metrics.prom").string() +
                " decrypt bob f1 " + (home_ / "out.txt").string()),
            2);
  EXPECT_NE(read_file("metrics.prom").find("maabe_engine_pairings_total"),
            std::string::npos);
}

}  // namespace
