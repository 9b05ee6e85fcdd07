#include "algo/abd/server.h"

namespace memu::abd {

void Server::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* q = msg.as<QueryReq>()) {
    ctx.send(from, make_msg<QueryResp>(q->rid(), tag_,
                                       q->want_value ? *value_ : Value{}));
    return;
  }
  if (const auto* s = msg.as<StoreReq>()) {
    if (s->tag > tag_) {
      tag_ = s->tag;
      value_ = ValueRef(s->value);
    }
    ctx.send(from, make_msg<StoreAck>(s->rid()));
    return;
  }
  unexpected_message(name(), msg);
}

}  // namespace memu::abd
