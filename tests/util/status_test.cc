#include "util/status.h"

#include <gtest/gtest.h>

namespace sds {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad window");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kInternal, StatusCode::kIoError,
        StatusCode::kParseError}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  const std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

namespace helpers {

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status Chain(int x, int* out) {
  SDS_RETURN_IF_ERROR(FailIfNegative(x));
  SDS_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

}  // namespace helpers

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  int out = 0;
  EXPECT_EQ(helpers::Chain(-2, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(helpers::Chain(3, &out).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(helpers::Chain(8, &out).ok());
  EXPECT_EQ(out, 4);
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r = Status::Internal("boom");
  EXPECT_DEATH((void)r.value(), "boom");
}

}  // namespace
}  // namespace sds
