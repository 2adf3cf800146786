// A seeded generator of random calendar expressions, shared by the
// randomized harnesses (random_expression_test, next_fire_memo_test).

#ifndef CALDB_TESTS_LANG_EXPRESSION_GENERATOR_H_
#define CALDB_TESTS_LANG_EXPRESSION_GENERATOR_H_

#include <cstdint>
#include <random>
#include <string>

namespace caldb {

// Builds a random expression from the grammar.  Depth-bounded; biased
// toward the shapes the paper uses (selection over foreach chains).
class ExpressionGenerator {
 public:
  explicit ExpressionGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() { return AddExpr(3); }

 private:
  int Rand(int bound) { return static_cast<int>(rng_() % static_cast<uint64_t>(bound)); }

  std::string AddExpr(int depth) {
    std::string out = CalExpr(depth);
    while (depth > 0 && Rand(4) == 0) {
      out += Rand(2) == 0 ? " + " : " - ";
      out += CalExpr(depth - 1);
    }
    return out;
  }

  std::string CalExpr(int depth) {
    // Optional selection prefix.
    std::string prefix;
    if (Rand(3) == 0) {
      switch (Rand(5)) {
        case 0:
          prefix = "[" + std::to_string(Rand(4) + 1) + "]/";
          break;
        case 1:
          prefix = "[n]/";
          break;
        case 2:
          prefix = "[-" + std::to_string(Rand(3) + 1) + "]/";
          break;
        case 3:
          prefix = "[1.." + std::to_string(Rand(4) + 2) + "]/";
          break;
        default:
          prefix = "[1,3]/";
          break;
      }
    }
    if (depth <= 0) return prefix + Primary();
    if (Rand(3) == 0) return prefix + Primary();
    // A foreach chain.
    static constexpr const char* kOps[] = {"during", "overlaps", "intersects",
                                           "<", "<=", "meets"};
    const char* op = kOps[Rand(6)];
    const char* mark = Rand(4) == 0 ? "." : ":";
    // Relaxed intersects and relaxed chains are legal; use : for < to keep
    // scripts close to the paper's style.
    return prefix + Primary() + mark + op + mark + CalExpr(depth - 1);
  }

  std::string Primary() {
    switch (Rand(6)) {
      case 0:
        return "DAYS";
      case 1:
        return "WEEKS";
      case 2:
        return "MONTHS";
      case 3:
        return "1993/YEARS";
      case 4: {
        int lo = Rand(120) + 1;
        int hi = lo + Rand(40);
        return "days{(" + std::to_string(lo) + "," + std::to_string(hi) + ")}";
      }
      default: {
        int a = Rand(60) + 1;
        int b = a + Rand(10);
        int c = b + 2 + Rand(40);
        int d = c + Rand(10);
        return "days{(" + std::to_string(a) + "," + std::to_string(b) + "),(" +
               std::to_string(c) + "," + std::to_string(d) + ")}";
      }
    }
  }

  std::mt19937_64 rng_;
};

}  // namespace caldb

#endif  // CALDB_TESTS_LANG_EXPRESSION_GENERATOR_H_
