#include "trace/filter.h"

namespace sds::trace {

Trace FilterTrace(const Trace& raw, FilterStats* stats) {
  FilterStats local;
  Trace clean;
  clean.num_clients = raw.num_clients;
  clean.num_servers = raw.num_servers;
  clean.requests.reserve(raw.requests.size());
  for (Request r : raw.requests) {
    if (CleanRequest(&r, &local)) clean.requests.push_back(r);
  }
  if (stats != nullptr) *stats = local;
  return clean;
}

}  // namespace sds::trace
