#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace caldb {

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> StrSplit(std::string_view s, char sep) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.push_back(s.substr(start));
      break;
    }
    pieces.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string AsciiToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  // ASCII folding, as std::tolower does in the C locale, without a
  // library call per character: keyword checks run on every statement.
  auto fold = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  for (size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

Result<int64_t> ParseInt64(std::string_view s) {
  int64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::ParseError("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  // strtod needs a NUL terminator; literals are short, so the copy is
  // noise.  errno (not an exception) reports range errors.
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    return Status::ParseError("not a number: '" + buf + "'");
  }
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    return Status::ParseError("number out of range: '" + buf + "'");
  }
  return value;
}

}  // namespace caldb
