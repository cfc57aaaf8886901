#include "util/status.h"

#include <gtest/gtest.h>

#include "util/result.h"

namespace skewsearch {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryOk) {
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, InvalidArgument) {
  Status s = Status::InvalidArgument("bad p");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad p");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad p");
}

TEST(StatusTest, NotFound) {
  Status s = Status::NotFound("missing");
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsIOError());
}

TEST(StatusTest, IOError) {
  Status s = Status::IOError("disk");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.ToString(), "IO error: disk");
}

TEST(StatusTest, Aborted) {
  EXPECT_TRUE(Status::Aborted("cap").IsAborted());
}

TEST(StatusTest, NotSupported) {
  EXPECT_TRUE(Status::NotSupported("nyi").IsNotSupported());
}

TEST(StatusTest, Internal) {
  EXPECT_TRUE(Status::Internal("bug").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_NE(Status::NotFound("x"), Status::NotFound("y"));
  EXPECT_NE(Status::NotFound("x"), Status::IOError("x"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    SKEWSEARCH_RETURN_NOT_OK(Status::InvalidArgument("inner"));
    return Status::OK();
  };
  Status s = fails();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "inner");
}

TEST(StatusTest, ReturnNotOkMacroPassesThrough) {
  auto succeeds = []() -> Status {
    SKEWSEARCH_RETURN_NOT_OK(Status::OK());
    return Status::NotFound("reached end");
  };
  EXPECT_TRUE(succeeds().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("no"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> err(Status::NotFound("no"));
  EXPECT_EQ(err.ValueOr(7), 7);
  Result<int> ok(3);
  EXPECT_EQ(ok.ValueOr(7), 3);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
  EXPECT_EQ(r.ValueOr(5), 5);
}

// Reading the value of an errored Result aborts with the status on
// stderr in every build type (Release included), through each accessor.
TEST(ResultDeathTest, ValueOfErrorAborts) {
  Result<int> r(Status::NotFound("no such vector"));
  EXPECT_DEATH((void)r.value(), "no such vector");
  EXPECT_DEATH((void)*r, "no such vector");
  const Result<int>& cr = r;
  EXPECT_DEATH((void)cr.value(), "no such vector");
  Result<std::string> s(Status::IOError("disk gone"));
  EXPECT_DEATH((void)s->size(), "disk gone");
  EXPECT_DEATH((void)std::move(s).value(), "disk gone");
}

TEST(ResultDeathTest, ValueOfOkStatusResultAborts) {
  Result<int> r{Status::OK()};
  EXPECT_DEATH((void)r.value(), "OK status");
}

}  // namespace
}  // namespace skewsearch
