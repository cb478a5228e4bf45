#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace sds {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kParseError:
      return "ParseError";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

namespace internal {

void DieOnBadResultAccess(const Status& status) {
  std::fprintf(stderr, "Result<T>::value() called on error state: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace sds
