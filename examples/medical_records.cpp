// Medical-records sharing — the paper's motivating scenario.
//
// A hospital (data owner) shares patient records in the cloud. A medical
// organization issues "Doctor"/"Nurse" attributes; a clinical-trial
// administrator independently issues "Researcher". The record is split
// into components with different policies (Fig. 2), so a doctor who is
// also a trial researcher sees the diagnosis, a nurse sees only vitals,
// and the billing department sees only invoices — all from one stored
// file, with no trusted party evaluating policies.
//
//   $ ./medical_records
#include <cstdio>

#include "cloud/system.h"

using namespace maabe;
using cloud::CloudSystem;

namespace {

void show(const char* who, const std::map<std::string, Bytes>& view) {
  std::printf("%-28s ->", who);
  if (view.empty()) std::printf(" (nothing)");
  for (const auto& [name, data] : view) {
    std::printf(" %s=\"%s\"", name.c_str(), string_of(data).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  CloudSystem sys(pairing::Group::pbc_a512(), "medical-records-demo");

  // Independent authorities: no global coordinator.
  sys.add_authority("MedOrg", {"Doctor", "Nurse", "Billing"});
  sys.add_authority("TrialAdmin", {"Researcher"});

  // The hospital owns the data; it shares SK_o with both authorities and
  // pulls their public keys.
  sys.add_owner("hospital");
  sys.publish_authority_keys("MedOrg", "hospital");
  sys.publish_authority_keys("TrialAdmin", "hospital");

  // Users and their roles.
  sys.add_user("dr-grey");  // doctor AND trial researcher
  sys.assign_attributes("MedOrg", "dr-grey", {"Doctor"});
  sys.assign_attributes("TrialAdmin", "dr-grey", {"Researcher"});
  sys.issue_user_key("MedOrg", "dr-grey", "hospital");
  sys.issue_user_key("TrialAdmin", "dr-grey", "hospital");

  sys.add_user("nurse-kim");
  sys.assign_attributes("MedOrg", "nurse-kim", {"Nurse"});
  sys.issue_user_key("MedOrg", "nurse-kim", "hospital");

  sys.add_user("acct-lee");
  sys.assign_attributes("MedOrg", "acct-lee", {"Billing"});
  sys.issue_user_key("MedOrg", "acct-lee", "hospital");

  // One stored file, three granularities (paper Fig. 2).
  sys.upload("hospital", "patient-1307",
             {{"diagnosis", bytes_of("adenocarcinoma, stage II"),
               "Doctor@MedOrg AND Researcher@TrialAdmin"},
              {"vitals", bytes_of("bp=118/76 hr=64 spo2=98"),
               "Doctor@MedOrg OR Nurse@MedOrg"},
              {"invoice", bytes_of("CT scan $2,400"),
               "Billing@MedOrg"}});

  std::printf("record 'patient-1307' uploaded; per-user views:\n\n");
  show("dr-grey (Doctor+Researcher)", sys.download("dr-grey", "patient-1307"));
  show("nurse-kim (Nurse)", sys.download("nurse-kim", "patient-1307"));
  show("acct-lee (Billing)", sys.download("acct-lee", "patient-1307"));

  // Communication accounting (what Table IV measures).
  std::printf("\nbytes moved (selected channels):\n");
  std::printf("  aa:MedOrg    -> user:dr-grey : %6zu\n",
              sys.meter().stats("aa:MedOrg", "user:dr-grey").payload_bytes);
  std::printf("  aa:MedOrg    -> owner:hospital: %6zu\n",
              sys.meter().stats("aa:MedOrg", "owner:hospital").payload_bytes);
  std::printf("  owner:hospital -> server      : %6zu\n",
              sys.meter().stats("owner:hospital", "server").payload_bytes);
  std::printf("  server       -> user:nurse-kim: %6zu\n",
              sys.meter().stats("server", "user:nurse-kim").payload_bytes);
  return 0;
}
