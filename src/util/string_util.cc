#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace sds {

std::vector<std::string> SplitString(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view input, std::string_view prefix) {
  return input.size() >= prefix.size() &&
         input.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view input, std::string_view suffix) {
  return input.size() >= suffix.size() &&
         input.substr(input.size() - suffix.size()) == suffix;
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Result<int64_t> ParseInt64(std::string_view input) {
  const std::string buf(StripWhitespace(input));
  if (buf.empty()) return Status::ParseError("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing garbage in integer: " + buf);
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(std::string_view input) {
  const std::string buf(StripWhitespace(input));
  if (buf.empty()) return Status::ParseError("empty double");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::ParseError("double out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing garbage in double: " + buf);
  }
  return value;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

void AppendJsonEscaped(std::string* out, std::string_view input) {
  for (const char c : input) {
    const unsigned char byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        *out += "\\\"";
        continue;
      case '\\':
        *out += "\\\\";
        continue;
      case '\b':
        *out += "\\b";
        continue;
      case '\f':
        *out += "\\f";
        continue;
      case '\n':
        *out += "\\n";
        continue;
      case '\r':
        *out += "\\r";
        continue;
      case '\t':
        *out += "\\t";
        continue;
      default:
        break;
    }
    if (byte < 0x20 || byte >= 0x7F) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
      *out += buf;
    } else {
      *out += c;
    }
  }
}

std::string JsonEscape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  AppendJsonEscaped(&out, input);
  return out;
}

void AppendNumber(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

bool WriteStringToFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path);
  if (!out) return false;
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  return !out.fail();
}

}  // namespace sds
