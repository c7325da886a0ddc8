// Workload definitions and the closed-loop traffic of the end-to-end
// benchmark (README.md in this directory).
//
// A World is one CloudSystem deployment built from a WorkloadSpec and a
// seed, plus the benchmark's own model of who may open what. Every op
// goes through the public CloudSystem API, is timed from outside, runs
// under a bench-owned root span "bench.<class>", and has its output
// checked against the model:
//   * an opened slot must hold the bytes of the file's latest upload;
//   * a kCorrupt slot is a safety violation;
//   * after each revocation, the revoked user must fail to open a file
//     whose policy needs the revoked attribute (paper §V-C).
// A violation is recorded and makes the run fail; an op that ends in a
// typed error or an authorized-but-denied download counts as failed.
//
// Every latency leaves out the time the host gauge took during the op and
// is scaled to reference time by the gauge's readings around it
// (gauge.h).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/system.h"
#include "crypto/drbg.h"
#include "gauge.h"

namespace maabe::e2e {

enum class OpClass { kDownload = 0, kUpload = 1, kRevoke = 2, kEnrol = 3 };
inline constexpr size_t kClassCount = 4;
inline constexpr std::array<OpClass, kClassCount> kClasses = {
    OpClass::kDownload, OpClass::kUpload, OpClass::kRevoke, OpClass::kEnrol};
const char* class_name(OpClass c);

/// The one data owner of every workload.
inline constexpr const char* kOwner = "org";

struct WorkloadSpec {
  std::string name;
  size_t authorities = 2;
  size_t attributes = 2;       ///< per authority
  size_t users = 8;            ///< initial pool
  size_t users_per_class = 2;  ///< users sharing one attribute set
  /// Attributes a user holds at every authority: class c holds indices
  /// c, c+1, ... (mod attributes).
  size_t user_attributes = 1;
  size_t files = 16;
  /// The last `wide_files` files carry the wide policy: the AND of
  /// `wide_attributes` consecutive attributes at every authority. The
  /// rest carry one attribute of one authority.
  size_t wide_files = 0;
  size_t wide_attributes = 1;
  size_t payload_bytes = 256;
  double zipf_s = 1.1;
  size_t decrypt_cache = 64;  ///< per-user decrypt cache entries; 0 disables
  /// Ops of each class (OpClass order) in one deck of the traffic mix.
  /// Each deck is shuffled, so every run has the mix exactly.
  std::array<size_t, kClassCount> deck{1, 0, 0, 0};
};

/// The named workloads; nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);
std::vector<std::string> workload_names();

/// When one op ran, and its latency without the gauge's readings.
struct Sample {
  gauge::Clock::time_point start, end;
  double ms = 0;
};

/// Per-class latency samples and outcome counts of one phase.
struct OpLog {
  std::array<std::vector<Sample>, kClassCount> samples;  ///< every attempt
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void add(OpClass c, const Sample& s, bool ok);
  /// Latencies of class c in reference milliseconds.
  std::vector<double> latencies(OpClass c) const;
  /// Ops of every class per reference second of their latencies: the
  /// throughput of one caller that waits for nothing but the system.
  double throughput() const;
};

/// Observer of every op (the traced run's per-class counter ledger).
class OpObserver {
 public:
  virtual ~OpObserver() = default;
  virtual void before(OpClass c) = 0;
  virtual void after(OpClass c) = 0;
};

struct TrafficResult {
  OpLog log;
  uint64_t ops = 0;
};

class World {
 public:
  /// Enrolment + revocation pairs run after setup and before traffic.
  static constexpr size_t kProbePairs = 15;

  World(std::shared_ptr<const pairing::Group> grp, const WorkloadSpec& spec,
        uint64_t seed);

  /// Authorities, owner, user pool and the first revision of every file.
  void build();
  /// kProbePairs enrolments, each followed by a revocation from the new
  /// user. The traffic never picks a probe user, so the number of probes
  /// does not change the traffic.
  void probe(OpLog& log);
  /// Closed loop with one caller for `seconds` of wall time.
  TrafficResult traffic(double seconds);

  void set_observer(OpObserver* obs) { observer_ = obs; }
  cloud::CloudSystem& system() { return *sys_; }
  const WorkloadSpec& spec() const { return spec_; }
  const pairing::Group& group() const { return *grp_; }
  /// Safety violations seen so far (empty on a correct run).
  const std::vector<std::string>& violations() const { return violations_; }

  // ---- Inputs for the ladder ---------------------------------------------
  std::string file_id(size_t f) const;
  const std::string& policy(size_t f) const { return files_[f].policy; }
  /// A file with the most / fewest policy attributes.
  size_t widest_file() const;
  size_t narrowest_file() const;
  /// A user whose keys open file f (throws when none does).
  std::string reader_of(size_t f) const;
  /// Attribute names one user of the workload holds at one authority.
  std::set<std::string> user_attribute_names() const;
  std::string aid(size_t i) const;
  std::string attribute(size_t j) const;
  /// Uploads a new revision of file f outside any timing.
  void reupload(size_t f);

 private:
  struct UserModel {
    std::string uid;
    std::vector<std::set<size_t>> attrs;  ///< per authority
    bool probe = false;                   ///< enrolled by the probes
  };
  struct FileModel {
    std::vector<std::pair<size_t, size_t>> needs;  ///< (authority, attribute)
    std::string policy;
    uint64_t revision = 0;
    Bytes content;      ///< plaintext of the latest upload
    Bytes alt_content;  ///< a failed upload's plaintext, which may have landed
  };

  /// Items in fixed proportions: each pass through `order` holds item i
  /// exactly counts[i] times, shuffled, so a run's mix does not drift
  /// with the seed.
  struct Deck {
    std::vector<size_t> counts;
    std::vector<size_t> order;
    size_t pos = 0;
  };

  bool can_open(const UserModel& u, const FileModel& f) const;
  double uniform();
  /// The next item of the deck, reshuffled at the end of each pass.
  size_t deal(Deck& deck);

  /// Runs `fn` under the bench root span and the latency clock; a typed
  /// library error makes the op fail.
  template <typename Fn>
  Sample timed(OpClass c, Fn&& fn, bool* ok);

  /// Untimed when `log` is null (setup). Returns whether the user joined.
  bool enrol_user(OpLog* log);
  void upload(size_t f, const Bytes& salt, OpLog* log);
  /// `pick` chooses the reader among the traffic users who may open f.
  void download(size_t f, double pick, OpLog& log);
  /// Revokes from the newest traffic user that has one; false when none.
  bool revoke(double pick, OpLog& log);
  /// Revokes from users_[u] an attribute, starting the search at `pick`,
  /// whose removal still leaves every file a traffic reader, so no
  /// revocation takes away the last reader of a file; false when none.
  bool revoke_from(size_t u, double pick, OpLog& log);
  /// The revoked user must not open a file that needs the attribute.
  void deny_check(const UserModel& victim, size_t authority, size_t attr);

  std::shared_ptr<const pairing::Group> grp_;
  WorkloadSpec spec_;
  crypto::Drbg rng_;
  Deck classes_;         ///< OpClass values, spec.deck
  Deck download_files_;  ///< file indices, Zipf-ranked
  Deck upload_files_;
  std::unique_ptr<cloud::CloudSystem> sys_;
  std::vector<UserModel> users_;
  size_t next_user_ = 0;
  std::vector<FileModel> files_;
  std::vector<std::string> violations_;
  OpObserver* observer_ = nullptr;
};

}  // namespace maabe::e2e
