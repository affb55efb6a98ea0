// The command line of every bench main. Each main declares its flags
// once, in a table: the flag's name, the field it sets (whose value at
// declaration is the default), how the value is shown in the usage line
// and a help string. The table checks every value and builds the usage
// text. Exit codes shared by all benches: 2 for a bad command line, 1
// for a failed gate, a failed oracle or a failed report/trace write.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace heron::bench {

class Cli {
 public:
  /// A switch: giving it sets `field` to the opposite of its default.
  Cli& flag(std::string name, bool& field, std::string help);

  /// A flag followed by one value, written `metavar` in the usage text.
  /// Integers must be whole decimal numbers in the field's range, with a
  /// '-' only for signed fields; doubles must be finite.
  template <typename T>
  Cli& flag(std::string name, T& field, std::string metavar,
            std::string help) {
    flags_.push_back(Flag{std::move(name), &field, std::move(metavar),
                          std::move(help), default_text(field)});
    return *this;
  }

  /// Applies argv[1..argc) to the fields. On a bad command line prints
  /// the error and the usage text to stderr and exits 2.
  void parse(int argc, char** argv) const;

  /// Like parse(), but arguments that are not in the table are kept:
  /// they are moved to argv[1..) and their count plus one is returned,
  /// to be handed on to another parser.
  int parse_known(int argc, char** argv) const;

  /// Applies `args` (argv without the program name) to the fields and
  /// returns what is wrong with them, or nothing. Unknown arguments are
  /// appended to `rest` when it is given and are an error otherwise.
  std::optional<std::string> apply(std::span<char* const> args,
                                   std::vector<char*>* rest = nullptr) const;

  /// "usage: <program> [--flag <v>] ..." plus one help line per flag.
  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  using Field = std::variant<bool*, std::string*, std::uint64_t*,
                             std::uint32_t*, int*, double*>;
  struct Flag {
    std::string name;
    Field field;
    std::string metavar;  // empty for a switch
    std::string help;
    std::string def;      // default shown in the help line; empty = none
    bool on = false;      // the value a switch sets
  };

  static std::string default_text(const std::string& v) { return v; }
  static std::string default_text(double v);
  template <typename T>
  static std::string default_text(T v) {
    return std::to_string(v);
  }

  [[noreturn]] void fail(const char* program, const std::string& error) const;

  std::vector<Flag> flags_;
};

}  // namespace heron::bench
