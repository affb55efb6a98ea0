#include "core/session_table.hpp"

#include <algorithm>
#include <cstring>

namespace heron::core {

namespace {

/// Wire form of a Session: fixed header, then `cached_len` reply payload
/// bytes, then `extra_count` u64 words of the executed-seq window above
/// the watermark (SeqWindow::words(): bit i of word w is seq
/// ((watermark + 1) & ~63) + 64w + i). A session with nothing executed
/// above its watermark has no words.
struct SessionWire {
  std::uint64_t watermark = 0;
  std::uint64_t cached_seq = 0;
  std::uint64_t last_tmp = 0;    // tmp of the session's last executed cmd
  std::uint32_t cached_status = 0;
  std::uint32_t cached_len = 0;
  std::uint32_t extra_count = 0;  // window words
  std::uint32_t paged_out = 0;   // cached payload lives on the device
};
static_assert(std::is_trivially_copyable_v<SessionWire>);

/// The reply a session's record carries: `paged_in` when given.
const Reply& encoded_reply(const Session& s, const Reply* paged_in) {
  return paged_in != nullptr ? *paged_in : s.cached_reply;
}

/// Value bytes of the record append_session() writes.
std::size_t session_value_size(const Session& s, const Reply* paged_in) {
  return sizeof(SessionWire) + encoded_reply(s, paged_in).payload.size() +
         s.seqs.words().size_bytes();
}

}  // namespace

// Union-merge: both sides may have executed disjoint command sets (the
// source pre-flip, this group post-flip). The cached reply follows the
// higher cached_seq; a paged-out incoming payload stays paged out and
// degrades to kStatusStaleSession on retry (this group's device never
// persisted it).
void Session::merge(Session&& incoming) {
  if (incoming.cached_seq > cached_seq) {
    cached_seq = incoming.cached_seq;
    cached_reply = std::move(incoming.cached_reply);
    reply_paged_out = incoming.reply_paged_out;
  }
  last_tmp = std::max(last_tmp, incoming.last_tmp);
  last_active = incoming.last_active;
  seqs.merge(incoming.seqs);
}

void append_session(durable::RecordBuffer& out, std::uint32_t client,
                    const Session& s, const Reply* paged_in) {
  const Reply& reply = encoded_reply(s, paged_in);
  const std::span<const std::uint64_t> words = s.seqs.words();
  const SessionWire wire{
      s.watermark(),
      s.cached_seq,
      s.last_tmp,
      reply.status,
      static_cast<std::uint32_t>(reply.payload.size()),
      static_cast<std::uint32_t>(words.size()),
      s.reply_paged_out && paged_in == nullptr ? 1u : 0u};
  const auto value = out.append(durable::kRecordSession, 0, client,
                                s.last_tmp, session_value_size(s, paged_in));
  std::byte* at = value.data();
  std::memcpy(at, &wire, sizeof(wire));
  at += sizeof(wire);
  if (!reply.payload.empty()) {
    std::memcpy(at, reply.payload.data(), reply.payload.size());
    at += reply.payload.size();
  }
  if (!words.empty()) std::memcpy(at, words.data(), words.size_bytes());
}

Session decode_session(std::span<const std::byte> bytes) {
  Session s;
  if (bytes.size() < sizeof(SessionWire)) return s;  // malformed
  SessionWire wire{};
  std::memcpy(&wire, bytes.data(), sizeof(wire));
  // Validate the declared lengths against the blob before slicing: a
  // truncated or corrupt blob must yield an empty session, not OOB reads.
  const std::size_t need =
      sizeof(SessionWire) + static_cast<std::size_t>(wire.cached_len) +
      static_cast<std::size_t>(wire.extra_count) * sizeof(std::uint64_t);
  if (bytes.size() < need) return s;
  s.cached_seq = wire.cached_seq;
  s.last_tmp = wire.last_tmp;
  s.cached_reply.status = wire.cached_status;
  s.reply_paged_out = wire.paged_out != 0;
  auto rest = bytes.subspan(sizeof(SessionWire));
  s.cached_reply.payload.assign(rest.begin(), rest.begin() + wire.cached_len);
  rest = rest.subspan(wire.cached_len);
  // Words the encoder cannot have written (the floor's bit set, or a bit
  // below it clear) mark a corrupt blob.
  std::vector<std::uint64_t> words(wire.extra_count);
  if (!words.empty()) {
    std::memcpy(words.data(), rest.data(), words.size() * sizeof(words[0]));
  }
  std::optional<sim::SeqWindow> seqs =
      sim::SeqWindow::from_words(wire.watermark + 1, std::move(words));
  if (!seqs.has_value()) return Session{};
  s.seqs = std::move(*seqs);
  return s;
}

std::optional<Session> decode_paged(
    const std::optional<durable::Record>& rec) {
  if (!rec.has_value()) return std::nullopt;
  Session s = decode_session(rec->bytes);
  if (s.reply_paged_out) return std::nullopt;
  return s;
}

void SessionTable::cache_reply(const Request& r, const Reply& reply) {
  if (r.header.session_seq == 0) return;
  Session& s = sessions_[amcast::uid_client(r.uid)];
  s.cached_seq = r.header.session_seq;
  s.cached_reply.status = reply.status;
  // Mirror what the reply slot carries: the payload truncated to the slot
  // size, so a cached answer is byte-identical to the original one.
  const std::size_t len = std::min(reply.payload.size(), kMaxReplyPayload);
  s.cached_reply.payload.assign(reply.payload.begin(),
                                reply.payload.begin() +
                                    static_cast<std::ptrdiff_t>(len));
  s.reply_paged_out = false;  // the in-memory copy is authoritative again
}

std::size_t SessionTable::compact(Tmp w, sim::Nanos now, sim::Nanos ttl) {
  const std::size_t before = sessions_.size();
  if (ttl > 0) {
    std::erase_if(sessions_, [&](const auto& entry) {
      const Session& s = entry.second;
      if (s.last_tmp > w || now - s.last_active <= ttl) return false;
      // Safe for sequential clients, which never resubmit an abandoned
      // seq.
      auto& floor = evicted_[entry.first];
      floor = std::max({floor, s.seqs.end() - 1, s.cached_seq});
      return true;
    });
  }
  for (auto& [client, s] : sessions_) {
    if (s.last_tmp <= w && !s.reply_paged_out &&
        !s.cached_reply.payload.empty()) {
      s.cached_reply.payload.clear();
      s.cached_reply.payload.shrink_to_fit();
      s.reply_paged_out = true;
    }
  }
  return before - sessions_.size();
}

template <typename Fn>
void SessionTable::for_each_selected(
    Tmp after, const std::map<std::uint32_t, Reply>* paged_in,
    Fn&& fn) const {
  for (const auto& [client, s] : sessions_) {
    if (after != 0 && s.last_tmp <= after) continue;
    const Reply* reply = nullptr;
    if (paged_in != nullptr && s.reply_paged_out) {
      const auto it = paged_in->find(client);
      if (it != paged_in->end()) reply = &it->second;
    }
    fn(client, s, reply);
  }
}

void SessionTable::append_records(
    durable::RecordBuffer& out, Tmp after,
    const std::map<std::uint32_t, Reply>* paged_in) const {
  for_each_selected(after, paged_in,
                    [&out](std::uint32_t client, const Session& s,
                           const Reply* reply) {
                      append_session(out, client, s, reply);
                    });
  for (const auto& [client, floor] : evicted_) {
    out.append(durable::kRecordTombstone, 0, client, floor, 0);
  }
}

std::pair<std::size_t, std::size_t> SessionTable::records_size(
    Tmp after, const std::map<std::uint32_t, Reply>* paged_in) const {
  std::size_t records = evicted_.size();  // tombstones carry no value
  std::size_t value_bytes = 0;
  for_each_selected(after, paged_in,
                    [&](std::uint32_t, const Session& s, const Reply* reply) {
                      ++records;
                      value_bytes += session_value_size(s, reply);
                    });
  return {records, value_bytes};
}

void SessionTable::install(const durable::RecordView& rec, bool merge,
                           sim::Nanos now) {
  const auto client = static_cast<std::uint32_t>(rec.id);
  if (rec.kind == durable::kRecordTombstone) {
    auto& floor = evicted_[client];
    floor = std::max(floor, rec.tmp);
    return;
  }
  Session s = decode_session(rec.value);
  s.last_active = now;
  const auto [it, fresh] = sessions_.try_emplace(client);
  if (fresh || !merge) {
    it->second = std::move(s);
  } else {
    it->second.merge(std::move(s));
  }
}

}  // namespace heron::core
