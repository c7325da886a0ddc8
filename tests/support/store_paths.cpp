#include "support/store_paths.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "crypto/sha256.h"

namespace maabe::cloud::paths {

size_t reencrypt(CloudServer& server, const abe::UpdateKey& uk,
                 const std::vector<abe::UpdateInfo>& infos) {
  static std::atomic<uint64_t> next_id{uint64_t{1} << 48};
  const uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  server.stage_reencrypt(id, uk, infos);
  return server.commit_reencrypt(id).value();
}

void plant_rot(CloudServer& server, const std::string& file_id, const Bytes& rotted) {
  const FetchReply kept = server.peek(file_id);
  if (!kept.found) throw std::logic_error("plant_rot: no file '" + file_id + "'");
  server.apply({file_id, kept.version, crypto::Sha256::digest(rotted), rotted});
  server.apply({file_id, kept.version, kept.hash, rotted});
  const FetchReply now = server.copy(file_id);
  if (now.version != kept.version || now.hash != kept.hash || now.wire != rotted)
    throw std::logic_error("plant_rot: '" + file_id +
                           "' does not hold the rotted bytes under its old version and hash");
}

}  // namespace maabe::cloud::paths
