// Structured error taxonomy for the extraction pipeline.
//
// Every failure the library raises deliberately carries a category (what
// kind of problem), a stage (which pipeline component detected it) and a
// message with the offending values, so an hours-long characterisation run
// that dies — or a service handling arbitrary user technologies — produces
// a diagnosable report instead of a bare `std::runtime_error("singular")`.
//
// Two base classes cover the historical exception contracts:
//   * Error        : std::runtime_error  — runtime failures (numeric
//                    breakdown, I/O, cache corruption)
//   * InvalidInput : std::invalid_argument — rejected inputs (geometry and
//                    netlist validation, API/CLI usage)
// Both implement the Fault interface, so `catch (const Fault&)` handles any
// categorized error uniformly while existing `catch std::invalid_argument`
// and `catch std::runtime_error` sites keep working.
#pragma once

#include <stdexcept>
#include <string>

namespace rlcx::diag {

/// What kind of failure this is.  The CLI exit-code contract keys off the
/// category (docs/robustness.md): usage -> 2, geometry/io/cache -> 3,
/// numeric -> 4, cancelled/deadline -> 5, overloaded -> 6,
/// resource-exhausted -> 7.
enum class Category {
  kGeometry,    ///< invalid physical/structural input (geometry, netlist)
  kNumeric,     ///< numerical breakdown: singular/near-singular systems,
                ///< divergence, NaN, non-convergence
  kIo,          ///< file and stream failures
  kCache,       ///< table-cache corruption or recovery failure
  kUsage,       ///< malformed invocation: bad flags, bad API arguments
  kCancelled,   ///< the run was cancelled cooperatively (SIGINT, caller)
  kDeadline,    ///< the run exceeded its wall-clock deadline
  kOverloaded,  ///< an admission-controlled service rejected the request
                ///< because its queue was full (back off and retry)
  kResourceExhausted,  ///< the work would exceed the process memory budget
                       ///< (res::Budget) and no cheaper path remained; the
                       ///< request will not fit on retry either
};

const char* to_string(Category c);

/// Process exit code for a failure of the given category (the CLI contract;
/// 1 is reserved for uncategorized exceptions).
int exit_code(Category c);

/// Interface carried by every categorized exception, independent of which
/// std exception hierarchy it extends.
class Fault {
 public:
  virtual ~Fault() = default;
  virtual Category category() const noexcept = 0;
  /// The pipeline stage that detected the fault ("lu", "fd2d", "transient",
  /// "table-cache", ...).
  virtual const std::string& stage() const noexcept = 0;
  /// The undecorated message (what() prepends "[category] stage: ").
  virtual const std::string& message() const noexcept = 0;
};

/// Formats the canonical what() text: "[numeric] lu: zero pivot ...".
std::string format_error(Category c, const std::string& stage,
                         const std::string& message);

/// Categorized runtime failure.
class Error : public std::runtime_error, public Fault {
 public:
  Error(Category category, std::string stage, std::string message)
      : std::runtime_error(format_error(category, stage, message)),
        category_(category), stage_(std::move(stage)),
        message_(std::move(message)) {}

  Category category() const noexcept override { return category_; }
  const std::string& stage() const noexcept override { return stage_; }
  const std::string& message() const noexcept override { return message_; }

 private:
  Category category_;
  std::string stage_;
  std::string message_;
};

/// Categorized rejected input (keeps the std::invalid_argument contract of
/// the original validation sites).
class InvalidInput : public std::invalid_argument, public Fault {
 public:
  InvalidInput(Category category, std::string stage, std::string message)
      : std::invalid_argument(format_error(category, stage, message)),
        category_(category), stage_(std::move(stage)),
        message_(std::move(message)) {}

  Category category() const noexcept override { return category_; }
  const std::string& stage() const noexcept override { return stage_; }
  const std::string& message() const noexcept override { return message_; }

 private:
  Category category_;
  std::string stage_;
  std::string message_;
};

/// Invalid geometry, technology stack or netlist element.
class GeometryError : public InvalidInput {
 public:
  GeometryError(std::string stage, std::string message)
      : InvalidInput(Category::kGeometry, std::move(stage),
                     std::move(message)) {}
};

/// Malformed invocation: bad CLI flags or API arguments.
class UsageError : public InvalidInput {
 public:
  UsageError(std::string stage, std::string message)
      : InvalidInput(Category::kUsage, std::move(stage), std::move(message)) {}
};

/// Numerical breakdown at runtime.
class NumericError : public Error {
 public:
  NumericError(std::string stage, std::string message)
      : Error(Category::kNumeric, std::move(stage), std::move(message)) {}
};

/// File or stream failure.
class IoError : public Error {
 public:
  IoError(std::string stage, std::string message)
      : Error(Category::kIo, std::move(stage), std::move(message)) {}
};

/// Table-cache corruption that could not be recovered (strict policy).
class CacheError : public Error {
 public:
  CacheError(std::string stage, std::string message)
      : Error(Category::kCache, std::move(stage), std::move(message)) {}
};

/// The run was cancelled cooperatively (SIGINT, an owning service, a test).
/// Thrown from run::checkpoint() at chunk/iteration boundaries, so the
/// unwind never leaves a partially-written table entry or journal record.
class CancelledError : public Error {
 public:
  CancelledError(std::string stage, std::string message)
      : Error(Category::kCancelled, std::move(stage), std::move(message)) {}
};

/// The run exceeded its wall-clock deadline (run::Deadline).
class DeadlineExceeded : public Error {
 public:
  DeadlineExceeded(std::string stage, std::string message)
      : Error(Category::kDeadline, std::move(stage), std::move(message)) {}
};

/// An admission-controlled service (the `rlcx serve` daemon) rejected the
/// request because both its execution slots and its wait queue were full.
/// The request was never started; clients should back off and retry.
class OverloadedError : public Error {
 public:
  OverloadedError(std::string stage, std::string message)
      : Error(Category::kOverloaded, std::move(stage), std::move(message)) {}
};

/// The work would not fit the process memory budget (res::Budget): a
/// reservation was refused (docs/robustness.md "Resource governance").
/// Unlike kOverloaded this is not transient —
/// an oversized request stays oversized on retry; shrink the request or
/// raise --mem-budget.
class ResourceExhaustedError : public Error {
 public:
  ResourceExhaustedError(std::string stage, std::string message)
      : Error(Category::kResourceExhausted, std::move(stage),
              std::move(message)) {}
};

/// A linear system the factorisation could not (or barely could) solve.
/// Carries the provenance a bare "singular matrix" hides: the pivot column
/// where elimination broke down, the system size and a cheap condition
/// estimate (max/min pivot magnitude; infinity when exactly singular).
class SingularSystem : public NumericError {
 public:
  SingularSystem(std::string stage, std::string message, std::size_t column,
                 std::size_t dimension, double condition_estimate)
      : NumericError(std::move(stage), std::move(message)), column_(column),
        dimension_(dimension), condition_(condition_estimate) {}

  std::size_t column() const noexcept { return column_; }
  std::size_t dimension() const noexcept { return dimension_; }
  double condition_estimate() const noexcept { return condition_; }

 private:
  std::size_t column_;
  std::size_t dimension_;
  double condition_;
};

/// Returns the category of `e` when it is a categorized fault, or
/// `fallback` otherwise.  The CLI exit-code mapping uses this.
Category category_of(const std::exception& e, Category fallback);

}  // namespace rlcx::diag
