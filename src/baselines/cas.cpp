#include "baselines/cas.h"

#include "codes/rs.h"
#include "common/assert.h"
#include "net/codec.h"

namespace lds::baselines {

// ---- message sizes -------------------------------------------------------------

std::uint64_t CasMessage::data_bytes() const {
  return std::visit(
      [](const auto& b) -> std::uint64_t {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, CasPreWrite>) return b.element.size();
        if constexpr (std::is_same_v<T, CasFinAck>) return b.element.size();
        return 0;
      },
      body_);
}

std::uint64_t CasMessage::meta_bytes() const {
  // Exact: the codec's encoded frame size minus the data payload.
  return net::codec::encoded_size(*this) - data_bytes();
}

const char* CasMessage::type_name() const {
  return std::visit(
      [](const auto& b) -> const char* {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, CasQuery>) return "CAS-QUERY";
        else if constexpr (std::is_same_v<T, CasQueryResp>)
          return "CAS-QUERY-RESP";
        else if constexpr (std::is_same_v<T, CasPreWrite>) return "CAS-PRE";
        else if constexpr (std::is_same_v<T, CasPreAck>) return "CAS-PRE-ACK";
        else if constexpr (std::is_same_v<T, CasFinalize>) return "CAS-FIN";
        else return "CAS-FIN-ACK";
      },
      body_);
}

std::shared_ptr<CasContext> make_cas_context(std::size_t n, std::size_t k,
                                             Bytes initial_value) {
  LDS_REQUIRE(k >= 1 && k <= n, "CAS: need 1 <= k <= n");
  auto ctx = std::make_shared<CasContext>();
  ctx->n = n;
  ctx->k = k;
  ctx->initial_value = std::move(initial_value);
  ctx->code = std::make_shared<codes::StripedCode>(
      std::make_shared<codes::RsRegenerating>(n, k));
  return ctx;
}

// ---- server ---------------------------------------------------------------------

CasServer::CasServer(net::Network& net, std::shared_ptr<const CasContext> ctx,
                     std::size_t index)
    : Node(net, ctx->server_ids.at(index), Role::ServerL1),
      ctx_(std::move(ctx)),
      index_(index) {}

CasServer::ObjectState& CasServer::object(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    ObjectState st;
    st.elements.emplace(kTag0, ctx_->code->encode_element(
                                   ctx_->initial_value,
                                   static_cast<int>(index_)));
    st.finalized.insert(kTag0);
    st.initialized = true;
    it = objects_.emplace(obj, std::move(st)).first;
    stored_bytes_ += it->second.elements.at(kTag0).size();
  }
  return it->second;
}

std::size_t CasServer::versions(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? 0 : it->second.elements.size();
}

Tag CasServer::max_finalized(ObjectId obj) const {
  auto it = objects_.find(obj);
  if (it == objects_.end() || it->second.finalized.empty()) return kTag0;
  return *it->second.finalized.rbegin();
}

void CasServer::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const CasMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "CasServer: non-CAS message");
  ObjectState& st = object(m->obj());

  if (std::get_if<CasQuery>(&m->body()) != nullptr) {
    const Tag fin =
        st.finalized.empty() ? kTag0 : *st.finalized.rbegin();
    send(from, CasMessage::make(m->obj(), m->op(), CasQueryResp{fin}));
    return;
  }
  if (const auto* p = std::get_if<CasPreWrite>(&m->body())) {
    auto [it, inserted] = st.elements.emplace(p->tag, p->element);
    if (inserted) stored_bytes_ += p->element.size();
    send(from, CasMessage::make(m->obj(), m->op(), CasPreAck{p->tag}));
    return;
  }
  if (const auto* f = std::get_if<CasFinalize>(&m->body())) {
    st.finalized.insert(f->tag);
    CasFinAck ack;
    ack.tag = f->tag;
    if (f->want_element) {
      if (auto it = st.elements.find(f->tag); it != st.elements.end()) {
        ack.has_element = true;
        ack.element = it->second;
      }
    }
    send(from, CasMessage::make(m->obj(), m->op(), std::move(ack)));
    return;
  }
  LDS_CHECK(false, "CasServer: unexpected message type");
}

// ---- client ---------------------------------------------------------------------

CasClient::CasClient(net::Network& net, std::shared_ptr<const CasContext> ctx,
                     NodeId id, Role role, History* history)
    : Node(net, id, role), ctx_(std::move(ctx)), history_(history) {
  for (std::size_t i = 0; i < ctx_->server_ids.size(); ++i) {
    server_index_[ctx_->server_ids[i]] = static_cast<int>(i);
  }
}

void CasClient::broadcast(const CasBody& body) {
  for (NodeId s : ctx_->server_ids) {
    send(s, CasMessage::make(obj_, op_, body));
  }
}

void CasClient::write(ObjectId obj, Value value, WriteCallback cb) {
  LDS_REQUIRE(!busy(), "CasClient: one operation at a time");
  phase_ = Phase::Query;
  is_write_ = true;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  value_ = std::move(value);
  wcb_ = std::move(cb);
  max_tag_ = kTag0;
  responders_.clear();
  if (history_ != nullptr) {
    history_index_ = history_->on_invoke(op_, OpKind::Write, obj_, id(),
                                         net_.sim().now());
  }
  broadcast(CasQuery{});
}

void CasClient::read(ObjectId obj, ReadCallback cb) {
  LDS_REQUIRE(!busy(), "CasClient: one operation at a time");
  phase_ = Phase::Query;
  is_write_ = false;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  rcb_ = std::move(cb);
  max_tag_ = kTag0;
  responders_.clear();
  read_elements_.clear();
  if (history_ != nullptr) {
    history_index_ =
        history_->on_invoke(op_, OpKind::Read, obj_, id(), net_.sim().now());
  }
  broadcast(CasQuery{});
}

void CasClient::enter_fin() {
  phase_ = Phase::Fin;
  responders_.clear();
  broadcast(CasFinalize{op_tag_, /*want_element=*/!is_write_});
}

void CasClient::finish() {
  phase_ = Phase::Idle;
  if (is_write_) {
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), op_tag_, value_);
    }
    if (wcb_) {
      auto cb = std::move(wcb_);
      wcb_ = nullptr;
      cb(op_tag_);
    }
  } else {
    auto decoded = ctx_->code->decode_value(read_elements_);
    LDS_CHECK(decoded.has_value(),
              "CasClient: quorum intersection must yield k elements");
    value_ = std::move(*decoded);
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), op_tag_, value_);
    }
    if (rcb_) {
      auto cb = std::move(rcb_);
      rcb_ = nullptr;
      cb(op_tag_, value_);
    }
  }
}

void CasClient::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const CasMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "CasClient: non-CAS message");
  if (m->op() != op_) return;
  const std::size_t quorum = ctx_->quorum();

  if (const auto* r = std::get_if<CasQueryResp>(&m->body())) {
    if (phase_ != Phase::Query) return;
    if (!responders_.insert(from).second) return;
    if (r->fin_tag > max_tag_) max_tag_ = r->fin_tag;
    if (responders_.size() < quorum) return;

    if (is_write_) {
      // pre-write phase: ship each server its coded element.
      phase_ = Phase::Pre;
      op_tag_ = Tag{max_tag_.z + 1, id()};
      if (history_ != nullptr) {
        history_->set_payload(history_index_, op_tag_, value_);
      }
      responders_.clear();
      for (std::size_t i = 0; i < ctx_->server_ids.size(); ++i) {
        send(ctx_->server_ids[i],
             CasMessage::make(
                 obj_, op_,
                 CasPreWrite{op_tag_, ctx_->code->encode_element(
                                          value_, static_cast<int>(i))}));
      }
    } else {
      op_tag_ = max_tag_;
      enter_fin();
    }
    return;
  }

  if (const auto* a = std::get_if<CasPreAck>(&m->body())) {
    if (phase_ != Phase::Pre || a->tag != op_tag_) return;
    if (!responders_.insert(from).second) return;
    if (responders_.size() < quorum) return;
    enter_fin();
    return;
  }

  if (const auto* f = std::get_if<CasFinAck>(&m->body())) {
    if (phase_ != Phase::Fin || f->tag != op_tag_) return;
    if (!responders_.insert(from).second) return;
    if (!is_write_ && f->has_element) {
      read_elements_.emplace_back(server_index_.at(from), f->element);
    }
    if (responders_.size() < quorum) return;
    if (!is_write_ && read_elements_.size() < ctx_->k) {
      // Fewer than k elements among the first q responses (possible only
      // when responses raced ahead of the pre-write quorum); wait for more
      // servers - at least q hold the element, so k will arrive.
      return;
    }
    finish();
    return;
  }
}

// ---- harness --------------------------------------------------------------------

CasCluster::CasCluster(Options opt) : opt_(opt), engine_(opt_.seed) {
  auto latency =
      opt_.exponential_latency
          ? std::unique_ptr<net::LatencyModel>(
                std::make_unique<net::ExponentialLatency>(
                    opt_.tau1, opt_.tau1, opt_.tau1))
          : std::unique_ptr<net::LatencyModel>(
                std::make_unique<net::FixedLatency>(opt_.tau1, opt_.tau1,
                                                    opt_.tau1));
  net_ = std::make_unique<net::Network>(engine_, 0, std::move(latency),
                                        opt_.seed);

  ctx_ = make_cas_context(opt_.n, opt_.k, opt_.initial_value);
  for (std::size_t i = 0; i < opt_.n; ++i) {
    ctx_->server_ids.push_back(20000 + static_cast<NodeId>(i));
  }
  for (std::size_t i = 0; i < opt_.n; ++i) {
    servers_.push_back(std::make_unique<CasServer>(*net_, ctx_, i));
  }
  for (std::size_t w = 0; w < opt_.writers; ++w) {
    writers_.push_back(std::make_unique<CasClient>(
        *net_, ctx_, static_cast<NodeId>(1 + w), Role::Writer, &history_));
  }
  for (std::size_t r = 0; r < opt_.readers; ++r) {
    readers_.push_back(std::make_unique<CasClient>(
        *net_, ctx_, 10000 + static_cast<NodeId>(r), Role::Reader,
        &history_));
  }
}

Tag CasCluster::write_sync(std::size_t writer_idx, ObjectId obj, Value value) {
  bool done = false;
  Tag tag;
  writers_.at(writer_idx)->write(obj, std::move(value), [&](Tag t) {
    done = true;
    tag = t;
  });
  while (!done && engine_.sim().step()) {
  }
  LDS_REQUIRE(done, "CasCluster::write_sync: drained before completion");
  return tag;
}

std::pair<Tag, Value> CasCluster::read_sync(std::size_t reader_idx,
                                            ObjectId obj) {
  bool done = false;
  Tag tag;
  Value value;
  readers_.at(reader_idx)->read(obj, [&](Tag t, Value v) {
    done = true;
    tag = t;
    value = std::move(v);
  });
  while (!done && engine_.sim().step()) {
  }
  LDS_REQUIRE(done, "CasCluster::read_sync: drained before completion");
  return {tag, std::move(value)};
}

std::uint64_t CasCluster::storage_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->stored_bytes();
  return total;
}

}  // namespace lds::baselines
