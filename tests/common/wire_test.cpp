#include "common/wire.h"

#include <gtest/gtest.h>

#include "common/errors.h"

namespace maabe {
namespace {

TEST(Wire, IntegersRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0x01020304);
  w.u64(0x0102030405060708ull);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.done());
}

TEST(Wire, BigEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(Wire, VarBytesAndStrings) {
  Writer w;
  w.var_bytes(Bytes{9, 8, 7});
  w.str("policy");
  w.var_bytes({});
  Reader r(w.bytes());
  EXPECT_EQ(r.var_bytes(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.str(), "policy");
  EXPECT_TRUE(r.var_bytes().empty());
  r.expect_done();
}

TEST(Wire, RawFixedWidth) {
  Writer w;
  w.raw(Bytes{1, 2, 3, 4, 5});
  Reader r(w.bytes());
  EXPECT_EQ(r.raw(2), (Bytes{1, 2}));
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.raw(3), (Bytes{3, 4, 5}));
}

TEST(Wire, RawViewPointsIntoTheBuffer) {
  const Bytes buf{1, 2, 3, 4, 5};
  Reader r(buf);
  const ByteView head = r.raw_view(2);
  EXPECT_EQ(head.data(), buf.data());
  EXPECT_EQ(Bytes(head.begin(), head.end()), (Bytes{1, 2}));
  EXPECT_EQ(r.raw(1), (Bytes{3}));
  EXPECT_EQ(r.raw_view(2).data(), buf.data() + 3);
  r.expect_done();
  EXPECT_THROW(r.raw_view(1), WireError);
}

TEST(Wire, TruncationDetected) {
  Writer w;
  w.u32(7);
  {
    Reader r(ByteView(w.bytes().data(), 3));
    EXPECT_THROW(r.u32(), WireError);
  }
  {
    Writer w2;
    w2.u32(100);  // length prefix promising 100 bytes
    Reader r(w2.bytes());
    EXPECT_THROW(r.var_bytes(), WireError);
  }
}

TEST(Wire, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_done(), WireError);
}

TEST(Wire, EmptyReader) {
  Reader r(ByteView{});
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), WireError);
}

}  // namespace
}  // namespace maabe
