#include "common/ledger.h"

#include <algorithm>

#include "common/string_utils.h"

namespace asterix {
namespace ledger {

namespace {

void AppendQueryJson(const QueryUsage& q, std::string* out) {
  *out += "{ \"query_id\": " + std::to_string(q.query_id) + ", \"client\": ";
  AppendJsonString(q.client, out);
  *out += ", \"statement\": ";
  AppendJsonString(q.statement, out);
  *out += ", \"cpu_us\": " + std::to_string(q.cpu_us) +
          ", \"bytes_read\": " + std::to_string(q.bytes_read) +
          ", \"bytes_written\": " + std::to_string(q.bytes_written) +
          ", \"spill_bytes\": " + std::to_string(q.spill_bytes) +
          ", \"total_bytes\": " + std::to_string(q.total_bytes()) +
          ", \"admission_wait_us\": " + std::to_string(q.admission_wait_us) +
          ", \"elapsed_us\": " + std::to_string(q.elapsed_us) +
          ", \"ok\": " + (q.ok ? "true" : "false") +
          ", \"finished\": " + (q.finished ? "true" : "false") + " }";
}

}  // namespace

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kExecuted:
      return "executed";
    case CacheOutcome::kHit:
      return "cache_hit";
    case CacheOutcome::kCoalesced:
      return "coalesced";
  }
  return "unknown";
}

ResourceLedger::ResourceLedger(size_t retain_finished)
    : retain_(std::max<size_t>(retain_finished, 1)) {}

ResourceLedger& ResourceLedger::Default() {
  static ResourceLedger* ledger = new ResourceLedger();
  return *ledger;
}

void ResourceLedger::Begin(uint64_t query_id, const std::string& client,
                           const std::string& statement) {
  if (query_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  QueryUsage& u = live_[query_id];
  u.query_id = query_id;
  u.client = client.empty() ? kDirectClient : client;
  u.statement = statement;
}

QueryUsage* ResourceLedger::FindLocked(uint64_t query_id) {
  if (query_id == 0) return nullptr;
  auto it = live_.find(query_id);
  return it == live_.end() ? nullptr : &it->second;
}

void ResourceLedger::AddCpu(uint64_t query_id, uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (QueryUsage* u = FindLocked(query_id)) u->cpu_us += us;
}

void ResourceLedger::AddBytesRead(uint64_t query_id, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (QueryUsage* u = FindLocked(query_id)) u->bytes_read += n;
}

void ResourceLedger::AddBytesWritten(uint64_t query_id, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (QueryUsage* u = FindLocked(query_id)) u->bytes_written += n;
}

void ResourceLedger::AddSpill(uint64_t query_id, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (QueryUsage* u = FindLocked(query_id)) u->spill_bytes += n;
}

void ResourceLedger::AddAdmissionWait(uint64_t query_id, uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (QueryUsage* u = FindLocked(query_id)) u->admission_wait_us += us;
}

void ResourceLedger::Finish(uint64_t query_id, bool ok, uint64_t elapsed_us) {
  if (query_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(query_id);
  if (it == live_.end()) return;
  QueryUsage u = std::move(it->second);
  live_.erase(it);
  u.ok = ok;
  u.finished = true;
  u.elapsed_us = elapsed_us;

  ClientUsage& c = clients_[u.client];
  c.client = u.client;
  c.queries += 1;
  if (!ok) c.failures += 1;
  c.cpu_us += u.cpu_us;
  c.bytes_read += u.bytes_read;
  c.bytes_written += u.bytes_written;
  c.spill_bytes += u.spill_bytes;
  c.admission_wait_us += u.admission_wait_us;

  finished_.push_back(std::move(u));
  while (finished_.size() > retain_) finished_.pop_front();
}

void ResourceLedger::RecordServed(const std::string& client,
                                  CacheOutcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& name = client.empty() ? kDirectClient : client;
  ClientUsage& c = clients_[name];
  c.client = name;
  if (outcome == CacheOutcome::kHit) c.cache_hits += 1;
  if (outcome == CacheOutcome::kCoalesced) c.coalesced += 1;
}

std::vector<QueryUsage> ResourceLedger::SnapshotLocked() const {
  std::vector<QueryUsage> all;
  all.reserve(finished_.size() + live_.size());
  for (const auto& q : finished_) all.push_back(q);
  for (const auto& [id, q] : live_) {
    (void)id;
    all.push_back(q);
  }
  return all;
}

std::vector<QueryUsage> ResourceLedger::TopByCpu(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryUsage> all = SnapshotLocked();
  std::stable_sort(all.begin(), all.end(),
                   [](const QueryUsage& a, const QueryUsage& b) {
                     return a.cpu_us > b.cpu_us;
                   });
  if (all.size() > n) all.resize(n);
  return all;
}

std::vector<QueryUsage> ResourceLedger::TopByBytes(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryUsage> all = SnapshotLocked();
  std::stable_sort(all.begin(), all.end(),
                   [](const QueryUsage& a, const QueryUsage& b) {
                     return a.total_bytes() > b.total_bytes();
                   });
  if (all.size() > n) all.resize(n);
  return all;
}

std::vector<ClientUsage> ResourceLedger::Clients() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClientUsage> out;
  out.reserve(clients_.size());
  for (const auto& [name, c] : clients_) {
    (void)name;
    out.push_back(c);
  }
  return out;
}

std::string ResourceLedger::TopJson(size_t n) const {
  std::vector<QueryUsage> by_cpu = TopByCpu(n);
  std::vector<QueryUsage> by_bytes = TopByBytes(n);
  std::string out = "{ \"by_cpu\": [ ";
  for (size_t i = 0; i < by_cpu.size(); ++i) {
    if (i) out += ", ";
    AppendQueryJson(by_cpu[i], &out);
  }
  out += " ], \"by_bytes\": [ ";
  for (size_t i = 0; i < by_bytes.size(); ++i) {
    if (i) out += ", ";
    AppendQueryJson(by_bytes[i], &out);
  }
  out += " ] }";
  return out;
}

std::string ResourceLedger::ClientsJson() const {
  std::vector<ClientUsage> clients = Clients();
  std::string out = "[ ";
  for (size_t i = 0; i < clients.size(); ++i) {
    const ClientUsage& c = clients[i];
    if (i) out += ", ";
    out += "{ \"client\": ";
    AppendJsonString(c.client, &out);
    out += ", \"queries\": " + std::to_string(c.queries) +
           ", \"failures\": " + std::to_string(c.failures) +
           ", \"cache_hits\": " + std::to_string(c.cache_hits) +
           ", \"coalesced\": " + std::to_string(c.coalesced) +
           ", \"cpu_us\": " + std::to_string(c.cpu_us) +
           ", \"bytes_read\": " + std::to_string(c.bytes_read) +
           ", \"bytes_written\": " + std::to_string(c.bytes_written) +
           ", \"spill_bytes\": " + std::to_string(c.spill_bytes) +
           ", \"admission_wait_us\": " + std::to_string(c.admission_wait_us) +
           " }";
  }
  out += " ]";
  return out;
}

void ResourceLedger::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  live_.clear();
  finished_.clear();
  clients_.clear();
}

}  // namespace ledger
}  // namespace asterix
