// Attribute-revocation lifecycle (paper Section V-C), step by step.
//
// Walks the complete protocol: an employee loses an attribute, the
// authority bumps its version key, non-revoked users receive update
// keys, the owner refreshes its public keys and emits update
// information, and the cloud server proxy-re-encrypts affected
// ciphertexts WITHOUT ever decrypting them. Shows:
//   * backward security  — the revoked user loses access to old data,
//   * forward access     — newly joined users can read old data,
//   * the partial-re-encryption property (only affected rows change).
//
//   $ ./revocation_lifecycle
#include <cstdio>

#include "cloud/system.h"

using namespace maabe;

namespace {

void check(const char* what, bool got, bool want) {
  std::printf("  %-58s %s\n", what, got == want ? (got ? "ACCESS" : "denied") : "UNEXPECTED!");
}

}  // namespace

int main() {
  cloud::CloudSystem sys(pairing::Group::pbc_a512(), "revocation-demo");

  sys.add_authority("Corp", {"Staff", "Finance"});
  sys.add_owner("filer");
  sys.publish_authority_keys("Corp", "filer");

  sys.add_user("mallory");
  sys.assign_attributes("Corp", "mallory", {"Staff", "Finance"});
  sys.issue_user_key("Corp", "mallory", "filer");

  sys.add_user("trent");
  sys.assign_attributes("Corp", "trent", {"Staff", "Finance"});
  sys.issue_user_key("Corp", "trent", "filer");

  sys.upload("filer", "q2-report",
             {{"summary", bytes_of("Q2 revenue up 12%"), "Staff@Corp"},
              {"ledger", bytes_of("detailed ledger rows"), "Finance@Corp"}});

  std::printf("before revocation (Corp key version %u):\n",
              sys.authority("Corp").version());
  check("mallory reads ledger", sys.download("mallory", "q2-report").contains("ledger"), true);
  check("trent reads ledger", sys.download("trent", "q2-report").contains("ledger"), true);

  // Mallory moves out of Finance: revoke the attribute. One call runs
  // both protocol phases across all entities.
  const size_t reencrypted = sys.revoke_attribute("Corp", "mallory", "Finance");
  std::printf("\nrevoked Finance@Corp from mallory: version -> %u, "
              "%zu ciphertext(s) proxy-re-encrypted by the server\n",
              sys.authority("Corp").version(), reencrypted);

  std::printf("\nafter revocation:\n");
  const auto mallory_view = sys.download("mallory", "q2-report");
  check("mallory reads summary (still Staff)", mallory_view.contains("summary"), true);
  check("mallory reads ledger (revoked)", mallory_view.contains("ledger"), false);
  const auto trent_view = sys.download("trent", "q2-report");
  check("trent reads ledger (update key applied)", trent_view.contains("ledger"), true);

  // New data is encrypted under the version-2 keys automatically.
  sys.upload("filer", "q3-forecast",
             {{"forecast", bytes_of("Q3 forecast: flat"), "Finance@Corp"}});
  std::printf("\nnew upload under version-2 keys:\n");
  check("mallory reads q3 forecast", sys.download("mallory", "q3-forecast").contains("forecast"),
        false);
  check("trent reads q3 forecast", sys.download("trent", "q3-forecast").contains("forecast"),
        true);

  // Forward access: a user joining after the revocation still reads the
  // re-encrypted OLD data (the server moved it to the new version).
  sys.add_user("peggy");
  sys.assign_attributes("Corp", "peggy", {"Finance"});
  sys.issue_user_key("Corp", "peggy", "filer");
  std::printf("\nnew user joining after revocation:\n");
  check("peggy reads old ledger", sys.download("peggy", "q2-report").contains("ledger"), true);

  std::printf("\nrevocation traffic (bytes):\n");
  std::printf("  aa:Corp -> user:trent   : %zu (update key)\n",
              sys.meter().stats("aa:Corp", "user:trent").payload_bytes);
  std::printf("  aa:Corp -> owner:filer  : %zu (update key)\n",
              sys.meter().stats("aa:Corp", "owner:filer").payload_bytes);
  return 0;
}
