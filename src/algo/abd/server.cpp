#include "algo/abd/server.h"

namespace memu::abd {

void Server::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* q = dynamic_cast<const QueryReq*>(&msg)) {
    ctx.send(from, make_msg<QueryResp>(q->rid, tag_,
                                       q->want_value ? *value_ : Value{}));
    return;
  }
  if (const auto* s = dynamic_cast<const StoreReq*>(&msg)) {
    if (s->tag > tag_) {
      tag_ = s->tag;
      value_ = ValueRef(s->value);
    }
    ctx.send(from, make_msg<StoreAck>(s->rid));
    return;
  }
  MEMU_UNREACHABLE("abd.server got unexpected message " +
                   std::string(msg.type_name()));
}

}  // namespace memu::abd
