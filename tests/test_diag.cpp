// Tests for the diagnostics subsystem itself: the error taxonomy, the
// CLI exit-code mapping and the scoped warnings channel.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "diag/error.h"
#include "diag/warnings.h"

namespace rlcx::diag {
namespace {

TEST(DiagTaxonomy, CategoryNames) {
  EXPECT_STREQ(to_string(Category::kGeometry), "geometry");
  EXPECT_STREQ(to_string(Category::kNumeric), "numeric");
  EXPECT_STREQ(to_string(Category::kIo), "io");
  EXPECT_STREQ(to_string(Category::kCache), "cache");
  EXPECT_STREQ(to_string(Category::kUsage), "usage");
  EXPECT_STREQ(to_string(Category::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(Category::kDeadline), "deadline");
  EXPECT_STREQ(to_string(Category::kOverloaded), "overloaded");
}

TEST(DiagTaxonomy, ExitCodeContract) {
  // The documented contract (docs/robustness.md): scripts key off these.
  EXPECT_EQ(exit_code(Category::kUsage), 2);
  EXPECT_EQ(exit_code(Category::kGeometry), 3);
  EXPECT_EQ(exit_code(Category::kIo), 3);
  EXPECT_EQ(exit_code(Category::kCache), 3);
  EXPECT_EQ(exit_code(Category::kNumeric), 4);
  EXPECT_EQ(exit_code(Category::kCancelled), 5);
  EXPECT_EQ(exit_code(Category::kDeadline), 5);
  EXPECT_EQ(exit_code(Category::kOverloaded), 6);
}

TEST(DiagTaxonomy, OverloadedIsTypedAndCatchableAsFault) {
  try {
    throw OverloadedError("serve", "admission queue full");
  } catch (const Fault& f) {
    EXPECT_EQ(f.category(), Category::kOverloaded);
  }
  EXPECT_THROW(throw OverloadedError("serve", "m"), std::runtime_error);
}

TEST(DiagTaxonomy, CancellationFaultsAreTypedAndCatchableAsFault) {
  try {
    throw CancelledError("rt", "cancellation requested");
  } catch (const Fault& f) {
    EXPECT_EQ(f.category(), Category::kCancelled);
  }
  try {
    throw DeadlineExceeded("rt", "deadline passed");
  } catch (const Fault& f) {
    EXPECT_EQ(f.category(), Category::kDeadline);
  }
  // Both stay on the runtime_error side of the dual hierarchy.
  EXPECT_THROW(throw CancelledError("rt", "m"), std::runtime_error);
  EXPECT_THROW(throw DeadlineExceeded("rt", "m"), std::runtime_error);
}

TEST(DiagTaxonomy, FormatError) {
  EXPECT_EQ(format_error(Category::kNumeric, "lu", "zero pivot"),
            "[numeric] lu: zero pivot");
}

TEST(DiagTaxonomy, WhatCarriesCategoryStageAndMessage) {
  const NumericError e("transient", "diverging voltage");
  EXPECT_STREQ(e.what(), "[numeric] transient: diverging voltage");
  EXPECT_EQ(e.category(), Category::kNumeric);
  EXPECT_EQ(e.stage(), "transient");
  EXPECT_EQ(e.message(), "diverging voltage");
}

// The dual hierarchy: rejected inputs keep the std::invalid_argument
// contract, runtime failures keep std::runtime_error, and all of them are
// catchable as Fault.
TEST(DiagTaxonomy, LeafTypesKeepHistoricalStdContracts) {
  EXPECT_THROW(throw GeometryError("block", "zero width"),
               std::invalid_argument);
  EXPECT_THROW(throw UsageError("cli", "bad flag"), std::invalid_argument);
  EXPECT_THROW(throw NumericError("fd2d", "NaN"), std::runtime_error);
  EXPECT_THROW(throw IoError("table", "truncated"), std::runtime_error);
  EXPECT_THROW(throw CacheError("cache", "corrupt"), std::runtime_error);

  try {
    throw GeometryError("block", "zero width");
  } catch (const Fault& f) {
    EXPECT_EQ(f.category(), Category::kGeometry);
  }
}

TEST(DiagTaxonomy, CategoryOfUsesFallbackForUncategorized) {
  const NumericError numeric("lu", "zero pivot");
  EXPECT_EQ(category_of(numeric, Category::kUsage), Category::kNumeric);
  const std::runtime_error plain("plain");
  EXPECT_EQ(category_of(plain, Category::kUsage), Category::kUsage);
}

TEST(DiagTaxonomy, SingularSystemCarriesProvenance) {
  const SingularSystem s("lu", "zero pivot at column 3", 3, 7,
                         std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.column(), 3u);
  EXPECT_EQ(s.dimension(), 7u);
  EXPECT_TRUE(std::isinf(s.condition_estimate()));
  EXPECT_EQ(s.category(), Category::kNumeric);
  // And it is still catchable at every level of the hierarchy.
  EXPECT_THROW(throw SingularSystem("lu", "m", 0, 1, 1.0), NumericError);
  EXPECT_THROW(throw SingularSystem("lu", "m", 0, 1, 1.0),
               std::runtime_error);
}

TEST(DiagWarnings, FormatWarning) {
  const Warning w{Category::kCache, "cache", "quarantined entry"};
  EXPECT_EQ(format_warning(w), "warning: [cache] cache: quarantined entry");
}

TEST(DiagWarnings, ScopedHandlerCapturesAndRestores) {
  std::vector<Warning> outer_seen, inner_seen;
  ScopedWarningHandler outer(
      [&](const Warning& w) { outer_seen.push_back(w); });
  emit_warning(Category::kNumeric, "fd2d", "one");
  {
    // Innermost wins while alive...
    ScopedWarningHandler inner(
        [&](const Warning& w) { inner_seen.push_back(w); });
    emit_warning(Category::kIo, "table", "two");
  }
  // ...and the outer handler is restored on destruction.
  emit_warning(Category::kGeometry, "block", "three");

  ASSERT_EQ(outer_seen.size(), 2u);
  EXPECT_EQ(outer_seen[0].stage, "fd2d");
  EXPECT_EQ(outer_seen[1].message, "three");
  ASSERT_EQ(inner_seen.size(), 1u);
  EXPECT_EQ(inner_seen[0].category, Category::kIo);
}

TEST(DiagWarnings, DedupScopeSuppressesIdenticalWarnings) {
  std::vector<Warning> seen;
  ScopedWarningHandler handler(
      [&](const Warning& w) { seen.push_back(w); });
  {
    ScopedWarningDedup dedup;
    emit_warning(Category::kNumeric, "sor", "slow convergence");
    emit_warning(Category::kNumeric, "sor", "slow convergence");  // dup
    emit_warning(Category::kNumeric, "sor", "slow convergence");  // dup
    emit_warning(Category::kNumeric, "sor", "another message");
    EXPECT_EQ(ScopedWarningDedup::suppressed_count(), 2u);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].message, "slow convergence");
  EXPECT_EQ(seen[1].message, "another message");

  // Outside any dedup scope every emission passes through again.
  emit_warning(Category::kNumeric, "sor", "slow convergence");
  EXPECT_EQ(seen.size(), 3u);
}

TEST(DiagWarnings, DedupScopesNestAsOneWindow) {
  std::vector<Warning> seen;
  ScopedWarningHandler handler(
      [&](const Warning& w) { seen.push_back(w); });
  {
    ScopedWarningDedup outer;
    emit_warning(Category::kCache, "cache", "same");
    {
      // A nested scope (a nested parallel region) joins the outer window
      // rather than resetting it.
      ScopedWarningDedup inner;
      emit_warning(Category::kCache, "cache", "same");
    }
    emit_warning(Category::kCache, "cache", "same");
  }
  EXPECT_EQ(seen.size(), 1u);
  // A fresh window starts clean.
  {
    ScopedWarningDedup again;
    emit_warning(Category::kCache, "cache", "same");
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(DiagWarnings, HandlersOnTwoThreadsDestroyedInPushOrder) {
  // Thread A installs first, thread B second; A's handler is destroyed
  // while B's is still alive.  A warning emitted after that must reach B's
  // live handler, never A's destroyed one.
  std::vector<Warning> a_seen, b_seen;
  std::promise<void> a_installed, b_installed, a_destroyed;
  std::thread a([&] {
    {
      const ScopedWarningHandler h(
          [&](const Warning& w) { a_seen.push_back(w); });
      a_installed.set_value();
      b_installed.get_future().wait();
    }
    a_destroyed.set_value();
  });
  std::thread b([&] {
    a_installed.get_future().wait();
    const ScopedWarningHandler h(
        [&](const Warning& w) { b_seen.push_back(w); });
    b_installed.set_value();
    a_destroyed.get_future().wait();
    emit_warning(Category::kNumeric, "table", "after A left");
  });
  a.join();
  b.join();
  EXPECT_TRUE(a_seen.empty());
  ASSERT_EQ(b_seen.size(), 1u);
  EXPECT_EQ(b_seen[0].message, "after A left");
}

}  // namespace
}  // namespace rlcx::diag
