// The store's production paths, packaged for tests and benches: a
// ReEncrypt epoch through the ledger, and bit rot planted through the
// replica repair rule. CloudServer has one way in for each job (writes
// through apply / apply_next, epochs through stage_reencrypt and
// commit_reencrypt), so these reach their states the way a cluster
// does. Nothing in the library calls these.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "abe/types.h"
#include "cloud/server.h"
#include "common/bytes.h"

namespace maabe::cloud::paths {

/// One ReEncrypt epoch: stage_reencrypt under a fresh epoch id, then
/// commit_reencrypt of that id. Returns the slots committed. Throws what
/// the stage throws (the ledger and the store unchanged). The ids come
/// from a process-wide counter that starts at 2^48, clear of the small
/// ids tests stage by hand.
size_t reencrypt(CloudServer& server, const abe::UpdateKey& uk,
                 const std::vector<abe::UpdateInfo>& infos);

/// Leaves `rotted` as the kept bytes of `file_id` under the version and
/// recorded hash of the revision kept now, as disk rot would: two
/// equal-version apply calls, {v, H(rotted), rotted} and then
/// {v, H(kept), rotted}, each a same-version repair. Checks that end
/// state through copy() and throws std::logic_error when the write
/// rules did not reach it. `rotted` must differ from the kept bytes and
/// pass the store's check (it is a write).
void plant_rot(CloudServer& server, const std::string& file_id, const Bytes& rotted);

}  // namespace maabe::cloud::paths
