#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace heron::bench {

namespace {

template <typename T>
const char* kind_name() {
  if constexpr (std::is_floating_point_v<T>) {
    return "a finite number";
  } else if constexpr (std::is_unsigned_v<T>) {
    return "a non-negative integer";
  } else {
    return "an integer";
  }
}

/// Parses all of `text` as a T, or says why it is not one.
template <typename T>
std::optional<std::string> parse_number(std::string_view text, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) return std::string("out of range");
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) return std::string("not ") + kind_name<T>();
  out = v;
  return std::nullopt;
}

}  // namespace

Cli& Cli::flag(std::string name, bool& field, std::string help) {
  flags_.push_back(
      Flag{std::move(name), &field, "", std::move(help), "", !field});
  return *this;
}

std::string Cli::default_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::optional<std::string> Cli::apply(std::span<char* const> args,
                                      std::vector<char*>* rest) const {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    const auto it = std::find_if(flags_.begin(), flags_.end(),
                                 [&](const Flag& f) { return f.name == arg; });
    if (it == flags_.end()) {
      if (rest == nullptr) return "unknown argument '" + std::string(arg) + "'";
      rest->push_back(args[i]);
      continue;
    }
    const auto error = std::visit(
        [&](auto* field) -> std::optional<std::string> {
          using T = std::remove_pointer_t<decltype(field)>;
          if constexpr (std::is_same_v<T, bool>) {
            *field = it->on;
            return std::nullopt;
          } else {
            if (i + 1 == args.size()) return std::string("missing value");
            const std::string_view text = args[++i];
            if constexpr (std::is_same_v<T, std::string>) {
              *field = text;
            } else if (auto why = parse_number(text, *field)) {
              return "'" + std::string(text) + "' is " + *why;
            }
            return std::nullopt;
          }
        },
        it->field);
    if (error) return it->name + ": " + *error;
  }
  return std::nullopt;
}

void Cli::parse(int argc, char** argv) const {
  const std::span<char* const> args(argv, static_cast<std::size_t>(argc));
  if (auto error = apply(args.subspan(1))) fail(argv[0], *error);
}

int Cli::parse_known(int argc, char** argv) const {
  const std::span<char* const> args(argv, static_cast<std::size_t>(argc));
  std::vector<char*> rest;
  if (auto error = apply(args.subspan(1), &rest)) fail(argv[0], *error);
  std::copy(rest.begin(), rest.end(), argv + 1);
  return static_cast<int>(rest.size()) + 1;
}

std::string Cli::usage(std::string_view program) const {
  auto shown = [](const Flag& f) {
    return f.metavar.empty() ? f.name : f.name + " " + f.metavar;
  };
  std::string text = "usage: " + std::string(program);
  std::size_t width = 0;
  for (const Flag& f : flags_) {
    text += " [" + shown(f) + "]";
    width = std::max(width, shown(f).size());
  }
  text += "\n";
  for (const Flag& f : flags_) {
    std::string column = shown(f);
    column.resize(width, ' ');
    text += "  " + column + "  " + f.help;
    if (!f.def.empty()) text += " (default " + f.def + ")";
    text += "\n";
  }
  return text;
}

void Cli::fail(const char* program, const std::string& error) const {
  std::fprintf(stderr, "%s: %s\n%s", program, error.c_str(),
               usage(program).c_str());
  std::exit(2);
}

}  // namespace heron::bench
