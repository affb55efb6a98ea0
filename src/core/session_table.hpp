// The session table: at-most-once execution per (client, session_seq), the
// cached last reply per client, and session-TTL tombstones. A value type:
// it never awaits and knows nothing of its replica.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "durable/record.hpp"
#include "sim/seq_window.hpp"

namespace heron::core {

/// One client's session: executed seqs plus the last reply, answered from
/// cache on retries.
struct Session {
  /// Executed seqs. The floor starts at 1, so seq 0 (sessionless) never
  /// counts and watermark() is inclusive.
  sim::SeqWindow seqs{1};
  std::uint64_t cached_seq = 0;        // seq the cached reply answers
  Reply cached_reply;                  // payload truncated to slot size
  Tmp last_tmp = 0;                    // tmp of the last executed command
  sim::Nanos last_active = 0;          // for session-TTL eviction
  /// Cached-reply payload dropped after a covering checkpoint committed;
  /// a retry pages it back in from the device.
  bool reply_paged_out = false;

  /// All seqs <= watermark() executed.
  [[nodiscard]] std::uint64_t watermark() const { return seqs.floor() - 1; }
  [[nodiscard]] bool executed(std::uint64_t seq) const {
    return seq != 0 && seqs.contains(seq);
  }
  void mark(std::uint64_t seq) {
    if (seq != 0) seqs.insert(seq);
  }
  /// Union-merge of another replica's copy of this session (migration).
  void merge(Session&& incoming);
};

/// Session <-> record value (kRecordSession). `last_active` is a local
/// clock and stays off the wire; installers re-stamp it. A truncated or
/// corrupt blob decodes to an empty session. `paged_in`, when set, stands
/// in for a paged-out cached reply (the record then says it is in memory).
void append_session(durable::RecordBuffer& out, std::uint32_t client,
                    const Session& s, const Reply* paged_in = nullptr);
Session decode_session(std::span<const std::byte> bytes);
/// The session in a record fetched back for a paged-out reply; none when
/// the fetch failed or the record is itself paged out (it has no payload).
std::optional<Session> decode_paged(const std::optional<durable::Record>& rec);

/// Sessions in client-id order, and tombstones: an evicted client's floor,
/// every seq at or below it executed before eviction. Floors only grow
/// until clear(). Sessionless requests (session_seq 0) are never recorded.
class SessionTable {
 public:
  using Map = std::map<std::uint32_t, Session>;

  [[nodiscard]] bool tombstoned(const Request& r) const {
    if (r.header.session_seq == 0) return false;
    const auto it = evicted_.find(amcast::uid_client(r.uid));
    return it != evicted_.end() && r.header.session_seq <= it->second;
  }
  [[nodiscard]] bool executed(const Request& r) const {
    const Session* s = find(r);
    return s != nullptr && s->executed(r.header.session_seq);
  }
  /// The in-memory reply cached for exactly `r`; in-flight or stale
  /// duplicates get none (the live attempt owns the reply slot).
  [[nodiscard]] const Reply* cached(const Request& r) const {
    const Session* s = answering(r);
    return s != nullptr && !s->reply_paged_out ? &s->cached_reply : nullptr;
  }
  [[nodiscard]] bool paged_out(const Request& r) const {
    const Session* s = answering(r);
    return s != nullptr && s->reply_paged_out;
  }
  /// Records that `r` is being executed (at dispatch).
  void mark(const Request& r, sim::Nanos now) {
    if (r.header.session_seq == 0) return;
    Session& s = sessions_[amcast::uid_client(r.uid)];
    s.mark(r.header.session_seq);
    s.last_tmp = std::max(s.last_tmp, r.tmp);
    s.last_active = now;
  }
  /// Caches `reply` as the reply slot carries it (payload truncated).
  void cache_reply(const Request& r, const Reply& reply);

  /// Clients whose paged-out reply a checkpoint re-encodes: all, or those
  /// with commands above `after`.
  [[nodiscard]] std::vector<std::uint32_t> paged_clients(bool all,
                                                         Tmp after) const {
    std::vector<std::uint32_t> out;
    for (const auto& [c, s] : sessions_) {
      if (s.reply_paged_out && (all || s.last_tmp > after)) out.push_back(c);
    }
    return out;
  }
  /// After a checkpoint covering `w` committed: the session TTL (when
  /// `ttl` > 0) evicts the covered sessions idle longer than `ttl`,
  /// leaving tombstones, and the covered replies are paged out. Returns
  /// how many sessions were evicted.
  std::size_t compact(Tmp w, sim::Nanos now, sim::Nanos ttl);

  /// Appends every session but those idle at or below `after` (when
  /// non-zero), then every tombstone; `paged_in` supplies the replies of
  /// paged-out sessions.
  void append_records(durable::RecordBuffer& out, Tmp after,
                      const std::map<std::uint32_t, Reply>* paged_in) const;
  /// The records and value bytes append_records() would append, for
  /// RecordBuffer::reserve().
  [[nodiscard]] std::pair<std::size_t, std::size_t> records_size(
      Tmp after, const std::map<std::uint32_t, Reply>* paged_in) const;
  /// Installs a session record (replacing, or union-merging when `merge`)
  /// or a tombstone record (max floor).
  void install(const durable::RecordView& rec, bool merge, sim::Nanos now);

  /// Forgets the sessions, and with `tombstones` the tombstones too.
  void clear(bool tombstones) {
    sessions_.clear();
    if (tombstones) evicted_.clear();
  }
  /// Raises a client's last_tmp as mark() does (tests).
  void touch(std::uint32_t client, Tmp tmp) {
    const auto it = sessions_.find(client);
    if (it != sessions_.end()) {
      it->second.last_tmp = std::max(it->second.last_tmp, tmp);
    }
  }
  [[nodiscard]] const Map& entries() const { return sessions_; }

 private:
  [[nodiscard]] const Session* find(const Request& r) const {
    if (r.header.session_seq == 0) return nullptr;
    const auto it = sessions_.find(amcast::uid_client(r.uid));
    return it != sessions_.end() ? &it->second : nullptr;
  }
  /// Visits fn(client, session, paged-in reply or null) for each session
  /// append_records() encodes: the one selection rule of the encoder and
  /// records_size().
  template <typename Fn>
  void for_each_selected(Tmp after,
                         const std::map<std::uint32_t, Reply>* paged_in,
                         Fn&& fn) const;
  /// The session whose cached reply answers exactly `r`.
  [[nodiscard]] const Session* answering(const Request& r) const {
    const Session* s = find(r);
    return s != nullptr && s->cached_seq == r.header.session_seq ? s : nullptr;
  }

  Map sessions_;
  std::map<std::uint32_t, std::uint64_t> evicted_;  // tombstones
};

}  // namespace heron::core
