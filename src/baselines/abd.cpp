#include "baselines/abd.h"

#include "common/assert.h"
#include "net/codec.h"

namespace lds::baselines {

// ---- message sizes ----------------------------------------------------------

std::uint64_t AbdMessage::data_bytes() const {
  return std::visit(
      [](const auto& b) -> std::uint64_t {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, AbdQueryResp>) return b.value.size();
        if constexpr (std::is_same_v<T, AbdUpdate>) return b.value.size();
        return 0;
      },
      body_);
}

std::uint64_t AbdMessage::meta_bytes() const {
  // Exact: the codec's encoded frame size minus the data payload.
  return net::codec::encoded_size(*this) - data_bytes();
}

const char* AbdMessage::type_name() const {
  return std::visit(
      [](const auto& b) -> const char* {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, AbdQuery>) return "ABD-QUERY";
        else if constexpr (std::is_same_v<T, AbdQueryResp>)
          return "ABD-QUERY-RESP";
        else if constexpr (std::is_same_v<T, AbdUpdate>) return "ABD-UPDATE";
        else return "ABD-UPDATE-ACK";
      },
      body_);
}

// ---- server ------------------------------------------------------------------

AbdServer::AbdServer(net::Network& net, std::shared_ptr<const AbdContext> ctx,
                     std::size_t index)
    : Node(net, ctx->server_ids.at(index), Role::ServerL1),
      ctx_(std::move(ctx)) {}

AbdServer::ObjectState& AbdServer::object(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    ObjectState st;
    st.tag = kTag0;
    st.value = ctx_->initial_value;
    stored_bytes_ += st.value.size();
    it = objects_.emplace(obj, std::move(st)).first;
  }
  return it->second;
}

Tag AbdServer::stored_tag(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? kTag0 : it->second.tag;
}

void AbdServer::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const AbdMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "AbdServer: non-ABD message");
  ObjectState& st = object(m->obj());

  if (const auto* q = std::get_if<AbdQuery>(&m->body())) {
    send(from, AbdMessage::make(
                   m->obj(), m->op(),
                   AbdQueryResp{st.tag, q->want_value ? st.value : Value{}}));
    return;
  }
  if (const auto* u = std::get_if<AbdUpdate>(&m->body())) {
    if (u->tag > st.tag) {
      stored_bytes_ -= st.value.size();
      st.tag = u->tag;
      st.value = u->value;
      stored_bytes_ += st.value.size();
    }
    send(from, AbdMessage::make(m->obj(), m->op(), AbdUpdateAck{u->tag}));
    return;
  }
  LDS_CHECK(false, "AbdServer: unexpected message type");
}

// ---- client ------------------------------------------------------------------

AbdClient::AbdClient(net::Network& net, std::shared_ptr<const AbdContext> ctx,
                     NodeId id, Role role, History* history)
    : Node(net, id, role), ctx_(std::move(ctx)), history_(history) {}

void AbdClient::broadcast(const AbdBody& body) {
  for (NodeId s : ctx_->server_ids) {
    send(s, AbdMessage::make(obj_, op_, body));
  }
}

void AbdClient::write(ObjectId obj, Value value, WriteCallback cb) {
  LDS_REQUIRE(!busy(), "AbdClient: one operation at a time");
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
  broadcast(AbdQuery{/*want_value=*/false});
}

void AbdClient::read(ObjectId obj, ReadCallback cb) {
  LDS_REQUIRE(!busy(), "AbdClient: one operation at a time");
  phase_ = Phase::Query;
  is_write_ = false;
  op_ = make_op_id(id(), ++seq_);
  obj_ = obj;
  rcb_ = std::move(cb);
  max_tag_ = kTag0;
  max_value_ = ctx_->initial_value;
  responders_.clear();
  if (history_ != nullptr) {
    history_index_ =
        history_->on_invoke(op_, OpKind::Read, obj_, id(), net_.sim().now());
  }
  broadcast(AbdQuery{/*want_value=*/true});
}

void AbdClient::finish(Tag tag) {
  phase_ = Phase::Idle;
  if (is_write_) {
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), tag, value_);
    }
    if (wcb_) {
      auto cb = std::move(wcb_);
      wcb_ = nullptr;
      cb(tag);
    }
  } else {
    if (history_ != nullptr) {
      history_->on_response(history_index_, net_.sim().now(), tag, value_);
    }
    if (rcb_) {
      auto cb = std::move(rcb_);
      rcb_ = nullptr;
      cb(tag, value_);
    }
  }
}

void AbdClient::on_message(NodeId from, const net::MessagePtr& msg) {
  const auto* m = dynamic_cast<const AbdMessage*>(msg.get());
  LDS_CHECK(m != nullptr, "AbdClient: non-ABD message");
  if (m->op() != op_) return;
  const std::size_t quorum = ctx_->quorum();

  if (const auto* r = std::get_if<AbdQueryResp>(&m->body())) {
    if (phase_ != Phase::Query) return;
    if (!responders_.insert(from).second) return;
    if (r->tag > max_tag_) {
      max_tag_ = r->tag;
      if (!is_write_) max_value_ = r->value;
    }
    if (responders_.size() < quorum) return;

    phase_ = Phase::Update;
    responders_.clear();
    if (is_write_) {
      update_tag_ = Tag{max_tag_.z + 1, id()};
      if (history_ != nullptr) {
        history_->set_payload(history_index_, update_tag_, value_);
      }
      broadcast(AbdUpdate{update_tag_, value_});
    } else {
      update_tag_ = max_tag_;
      value_ = max_value_;
      broadcast(AbdUpdate{update_tag_, value_});
    }
    return;
  }

  if (const auto* a = std::get_if<AbdUpdateAck>(&m->body())) {
    if (phase_ != Phase::Update || a->tag != update_tag_) return;
    if (!responders_.insert(from).second) return;
    if (responders_.size() < quorum) return;
    finish(update_tag_);
    return;
  }
}

// ---- harness -----------------------------------------------------------------

AbdCluster::AbdCluster(Options opt) : opt_(opt), engine_(opt_.seed) {
  LDS_REQUIRE(2 * opt_.f < opt_.n, "AbdCluster: need f < n/2");
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

  ctx_ = std::make_shared<AbdContext>();
  ctx_->n = opt_.n;
  ctx_->f = opt_.f;
  ctx_->initial_value = opt_.initial_value;
  for (std::size_t i = 0; i < opt_.n; ++i) {
    ctx_->server_ids.push_back(20000 + static_cast<NodeId>(i));
  }
  for (std::size_t i = 0; i < opt_.n; ++i) {
    servers_.push_back(std::make_unique<AbdServer>(*net_, ctx_, i));
  }
  for (std::size_t w = 0; w < opt_.writers; ++w) {
    writers_.push_back(std::make_unique<AbdClient>(
        *net_, ctx_, static_cast<NodeId>(1 + w), Role::Writer, &history_));
  }
  for (std::size_t r = 0; r < opt_.readers; ++r) {
    readers_.push_back(std::make_unique<AbdClient>(
        *net_, ctx_, 10000 + static_cast<NodeId>(r), Role::Reader,
        &history_));
  }
}

Tag AbdCluster::write_sync(std::size_t writer_idx, ObjectId obj, Value value) {
  bool done = false;
  Tag tag;
  writers_.at(writer_idx)->write(obj, std::move(value), [&](Tag t) {
    done = true;
    tag = t;
  });
  while (!done && engine_.sim().step()) {
  }
  LDS_REQUIRE(done, "AbdCluster::write_sync: drained before completion");
  return tag;
}

std::pair<Tag, Value> AbdCluster::read_sync(std::size_t reader_idx,
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
  LDS_REQUIRE(done, "AbdCluster::read_sync: drained before completion");
  return {tag, std::move(value)};
}

std::uint64_t AbdCluster::storage_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->stored_bytes();
  return total;
}

}  // namespace lds::baselines
