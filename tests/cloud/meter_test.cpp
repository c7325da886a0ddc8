#include "cloud/meter.h"

#include <gtest/gtest.h>

#include "telemetry/metrics.h"

namespace maabe::cloud {
namespace {

ChannelMeter fresh_meter() { return ChannelMeter(telemetry::next_instance()); }

TEST(Meter, RecordsAndAccumulates) {
  ChannelMeter m = fresh_meter();
  EXPECT_EQ(m.stats("a", "b").payload_bytes, 0u);
  m.frame("a", "b", 30, 10);
  m.frame("a", "b", 25, 5);
  EXPECT_EQ(m.stats("a", "b").payload_bytes, 15u);
  EXPECT_EQ(m.stats("a", "b").frames, 2u);
  EXPECT_EQ(m.stats("a", "b").frame_bytes, 55u);
  EXPECT_EQ(m.stats("b", "a").payload_bytes, 0u);
}

TEST(Meter, BetweenSumsBothDirections) {
  ChannelMeter m = fresh_meter();
  m.frame("a", "b", 20, 10);
  m.frame("b", "a", 17, 7);
  EXPECT_EQ(m.between("a", "b"), 17u);
  EXPECT_EQ(m.between("b", "a"), 17u);
}

TEST(Meter, RecordersSplitDeliveredVsAccepted) {
  ChannelMeter m = fresh_meter();
  m.frame("a", "b", 30, 10);
  m.delivery("a", "b", 10);
  m.accepted("a", "b", 10);
  m.duplicate("a", "b", 30, 10);  // the second copy arrives too...
  m.redelivery("a", "b");         // ...and dedup suppresses it
  const ChannelStats row = m.stats("a", "b");
  EXPECT_EQ(row.deliveries, 2u);
  EXPECT_EQ(row.bytes_delivered, 20u);
  EXPECT_EQ(row.bytes_accepted, 10u);
  EXPECT_EQ(row.redeliveries, 1u);
  EXPECT_EQ(row.duplicates, 1u);
  EXPECT_EQ(row.frames, 2u);
  EXPECT_EQ(row.payload_bytes, 10u);  // a duplicate is not a new artefact
  // totals() folds the split through operator+= like every other field.
  m.delivery("b", "c", 5);
  m.accepted("b", "c", 5);
  const ChannelStats t = m.totals();
  EXPECT_EQ(t.bytes_delivered, 25u);
  EXPECT_EQ(t.bytes_accepted, 15u);
  EXPECT_EQ(t.redeliveries, 1u);
}

TEST(Meter, EntriesReturnsSnapshotCopy) {
  ChannelMeter m = fresh_meter();
  m.frame("a", "b", 10, 3);
  auto snap = m.entries();
  ASSERT_EQ(snap.size(), 1u);
  m.frame("a", "b", 10, 4);  // later writes must not leak into the snapshot
  const std::pair<std::string, std::string> key{"a", "b"};
  EXPECT_EQ(snap[key].payload_bytes, 3u);
  EXPECT_EQ(m.entries()[key].payload_bytes, 7u);
}

}  // namespace
}  // namespace maabe::cloud
