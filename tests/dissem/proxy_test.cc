#include "dissem/proxy.h"

#include <gtest/gtest.h>

namespace sds::dissem {
namespace {

TEST(ProxyStoreTest, InsertWithinCapacity) {
  ProxyStore store(1000, 4);
  EXPECT_TRUE(store.Insert(1, 400));
  EXPECT_TRUE(store.Insert(2, 600));
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
  EXPECT_FALSE(store.Contains(0));
  EXPECT_FALSE(store.Contains(3));
  EXPECT_EQ(store.used_bytes(), 1000u);
}

TEST(ProxyStoreTest, RejectsOverflow) {
  ProxyStore store(1000, 4);
  EXPECT_TRUE(store.Insert(1, 900));
  EXPECT_FALSE(store.Insert(2, 200));
  EXPECT_FALSE(store.Contains(2));
  EXPECT_EQ(store.used_bytes(), 900u);
}

TEST(ProxyStoreTest, DuplicateInsertIsIdempotent) {
  ProxyStore store(1000, 4);
  EXPECT_TRUE(store.Insert(1, 400));
  EXPECT_TRUE(store.Insert(1, 400));
  EXPECT_EQ(store.used_bytes(), 400u);
}

TEST(ProxyStoreTest, ExactFit) {
  ProxyStore store(100, 4);
  EXPECT_TRUE(store.Insert(1, 100));
  EXPECT_FALSE(store.Insert(2, 1));
}

}  // namespace
}  // namespace sds::dissem
