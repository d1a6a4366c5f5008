#include "net/trace.h"

#include <algorithm>
#include <cstdio>

namespace lds::net {

Trace::Trace(Network& net, std::size_t capacity)
    : net_(&net), capacity_(capacity) {
  LDS_REQUIRE(capacity > 0, "Trace: capacity must be positive");
  net_->set_delivery_observer(
      [this](NodeId from, NodeId to, const Payload& p) {
        record(from, to, p);
      });
}

Trace::~Trace() { detach(); }

void Trace::detach() {
  if (net_ != nullptr) {
    net_->set_delivery_observer(nullptr);
    net_ = nullptr;
  }
}

void Trace::set_type_filter(std::vector<std::string> types) {
  filter_ = std::move(types);
}

void Trace::clear() {
  entries_.clear();
  total_ = 0;
  dropped_ = 0;
}

void Trace::record(NodeId from, NodeId to, const Payload& payload) {
  const char* type = payload.type_name();
  if (!filter_.empty() &&
      std::find(filter_.begin(), filter_.end(), type) == filter_.end()) {
    return;
  }
  ++total_;
  if (entries_.size() == capacity_) {
    entries_.pop_front();
    ++dropped_;
  }
  TraceEntry e;
  e.time = net_->sim().now();
  e.from = from;
  e.to = to;
  e.type = type;
  e.op = payload.op();
  e.data_bytes = payload.data_bytes();
  e.meta_bytes = payload.meta_bytes();
  entries_.push_back(std::move(e));
}

std::vector<TraceEntry> Trace::by_type(const std::string& type) const {
  std::vector<TraceEntry> out;
  for (const auto& e : entries_) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

std::size_t Trace::count(const std::string& type) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [&](const TraceEntry& e) { return e.type == type; }));
}

std::string Trace::format_entry(const TraceEntry& e) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "[%12.3f] %6d -> %-6d %-20s op=%08llx:%-6u %6lluB+%lluB",
                e.time, e.from, e.to, e.type.c_str(),
                static_cast<unsigned long long>(op_client(e.op)),
                op_seq(e.op), static_cast<unsigned long long>(e.data_bytes),
                static_cast<unsigned long long>(e.meta_bytes));
  return buf;
}

std::string Trace::format() const {
  std::string out;
  out.reserve(entries_.size() * 80);
  for (const auto& e : entries_) {
    out += format_entry(e);
    out += '\n';
  }
  if (dropped_ > 0) {
    out += '(';  // piecewise: "(" + std::string trips GCC 12 -Wrestrict
    out += std::to_string(dropped_);
    out += " older entries dropped)\n";
  }
  return out;
}

}  // namespace lds::net
