#include "parabb/ckpt/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "parabb/support/assert.hpp"
#include "parabb/support/hash.hpp"

namespace parabb {

namespace {

constexpr std::array<char, 4> kMagic = {'P', 'B', 'C', 'K'};
// magic(4) + version(4) + payload length(8) + crc(4)
constexpr std::size_t kHeaderBytes = 20;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

// -- little-endian byte stream -------------------------------------------

struct Writer {
  std::vector<std::uint8_t> out;

  void u8(std::uint8_t v) { out.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (in.size() - pos < n)
      throw SnapshotError("payload truncated (needed " + std::to_string(n) +
                          " more bytes at offset " + std::to_string(pos) +
                          ")");
  }
  std::uint8_t u8() {
    need(1);
    return in[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[pos++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Element counts are bounds-checked against the remaining payload so a
  /// corrupt length cannot drive a multi-gigabyte allocation.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (min_elem_bytes > 0 && n > (in.size() - pos) / min_elem_bytes)
      throw SnapshotError("element count " + std::to_string(n) +
                          " exceeds the remaining payload");
    return static_cast<std::size_t>(n);
  }
};

void write_path(Writer& w, const std::vector<CutPlacement>& path) {
  w.u64(path.size());
  for (const CutPlacement& pl : path) {
    w.i32(pl.task);
    w.i32(pl.proc);
    w.i64(pl.start);
  }
}

std::vector<CutPlacement> read_path(Reader& r) {
  const std::size_t n = r.count(16);
  std::vector<CutPlacement> path(n);
  for (CutPlacement& pl : path) {
    pl.task = r.i32();
    pl.proc = r.i32();
    pl.start = r.i64();
  }
  return path;
}

// The counters in field-table order, then the two peaks and the seconds.
// A counter added to the table changes the payload, so it comes with a new
// SearchSnapshot::kFormatVersion and a new count here.
static_assert(kSearchStatsFieldCount == 15,
              "bump SearchSnapshot::kFormatVersion");

void write_stats(Writer& w, const SearchStats& s) {
  for (const SearchStatsField& f : kSearchStatsFields) w.u64(s.*f.member);
  w.u64(s.peak_active);
  w.u64(s.peak_memory_bytes);
  w.f64(s.seconds);
}

SearchStats read_stats(Reader& r) {
  SearchStats s;
  for (const SearchStatsField& f : kSearchStatsFields) s.*f.member = r.u64();
  s.peak_active = static_cast<std::size_t>(r.u64());
  s.peak_memory_bytes = static_cast<std::size_t>(r.u64());
  s.seconds = r.f64();
  return s;
}

std::uint64_t mix_in(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9E3779B97F4A7C15ull));
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t instance_fingerprint(const SchedContext& ctx, const Params& p) {
  std::uint64_t h = 0x5042434Bull;  // "PBCK" seed
  // Instance: every number the search tree depends on.
  h = mix_in(h, static_cast<std::uint64_t>(ctx.task_count()));
  h = mix_in(h, static_cast<std::uint64_t>(ctx.proc_count()));
  for (TaskId t = 0; t < ctx.task_count(); ++t) {
    h = mix_in(h, static_cast<std::uint64_t>(ctx.exec(t)));
    h = mix_in(h, static_cast<std::uint64_t>(ctx.arrival(t)));
    h = mix_in(h, static_cast<std::uint64_t>(ctx.deadline(t)));
    const auto preds = ctx.pred_ids(t);
    const auto comms = ctx.pred_comm(t);
    h = mix_in(h, preds.size());
    for (std::size_t k = 0; k < preds.size(); ++k) {
      h = mix_in(h, static_cast<std::uint64_t>(preds[k]));
      h = mix_in(h, static_cast<std::uint64_t>(comms[k]));
    }
  }
  for (ProcId a = 0; a < ctx.proc_count(); ++a)
    for (ProcId b = 0; b < ctx.proc_count(); ++b)
      h = mix_in(h, static_cast<std::uint64_t>(ctx.hop(a, b)));
  // 9-tuple members that steer the tree (observability/trace knobs and
  // checkpointing itself are read-beside and excluded on purpose).
  h = mix_in(h, static_cast<std::uint64_t>(p.branch));
  h = mix_in(h, static_cast<std::uint64_t>(p.select));
  h = mix_in(h, static_cast<std::uint64_t>(p.elim));
  h = mix_in(h, static_cast<std::uint64_t>(p.lb));
  h = mix_in(h, static_cast<std::uint64_t>(p.ub));
  h = mix_in(h, static_cast<std::uint64_t>(p.explicit_ub));
  h = mix_in(h, std::bit_cast<std::uint64_t>(p.br));
  h = mix_in(h, static_cast<std::uint64_t>(p.sort_children));
  h = mix_in(h, static_cast<std::uint64_t>(p.llb_tie_newest));
  h = mix_in(h, static_cast<std::uint64_t>(p.transposition.enabled));
  h = mix_in(h, static_cast<std::uint64_t>(p.degrade));
  return h;
}

bool snapshot_matches(const SearchSnapshot& snap, const SchedContext& ctx,
                      const Params& p) {
  return snap.instance == instance_fingerprint(ctx, p);
}

PartialSchedule replay_path(const SchedContext& ctx,
                            std::span<const CutPlacement> path) {
  PartialSchedule state = PartialSchedule::empty(ctx);
  for (const CutPlacement& pl : path) {
    if (pl.task < 0 || pl.task >= ctx.task_count())
      throw SnapshotError("frontier path names task " +
                          std::to_string(pl.task) + " outside the graph");
    if (pl.proc < 0 || pl.proc >= ctx.proc_count())
      throw SnapshotError("frontier path places on processor " +
                          std::to_string(pl.proc) + " outside the machine");
    if (!state.ready().contains(pl.task))
      throw SnapshotError("frontier path places task " +
                          std::to_string(pl.task) +
                          " before its predecessors");
    const Time start = static_cast<Time>(state.place(ctx, pl.task, pl.proc));
    if (start != pl.start)
      throw SnapshotError(
          "frontier path records start " + std::to_string(pl.start) +
          " for task " + std::to_string(pl.task) +
          " but the scheduling operation assigns " + std::to_string(start));
  }
  return state;
}

std::vector<std::uint8_t> encode_snapshot(const SearchSnapshot& snap) {
  Writer w;
  w.u64(snap.instance);
  w.u8(static_cast<std::uint8_t>(snap.engine));

  w.u8(snap.found ? 1 : 0);
  w.i64(snap.incumbent_cost);
  w.u64(snap.incumbent.size());
  for (const ScheduledTask& st : snap.incumbent) {
    w.i32(st.task);
    w.i32(st.proc);
    w.i64(st.start);
    w.i64(st.finish);
  }

  w.u64(snap.frontier.size());
  for (const SnapshotVertex& v : snap.frontier) {
    write_path(w, v.path);
    w.i64(v.lb);
    w.u32(v.seq);
  }
  w.u32(snap.next_seq);

  write_stats(w, snap.stats);

  w.i32(snap.degrade_level);
  w.u8(snap.compromised ? 1 : 0);
  w.i64(snap.compromise_floor);

  w.u8(snap.tt_present ? 1 : 0);
  w.u64(snap.tt_counters.probes);
  w.u64(snap.tt_counters.hits);
  w.u64(snap.tt_counters.misses);
  w.u64(snap.tt_counters.inserts);
  w.u64(snap.tt_counters.evictions);
  w.u64(snap.tt_counters.rejected);
  w.u64(snap.tt_counters.collisions);
  w.u64(snap.tt_entries.size());
  for (const SnapshotTTEntry& e : snap.tt_entries) {
    write_path(w, e.path);
    w.i64(e.lb);
  }

  w.u8(snap.cert_present ? 1 : 0);
  w.u8(snap.cert_truncated ? 1 : 0);
  w.u64(snap.cert_degrades.size());
  for (const DegradeRecord& d : snap.cert_degrades) {
    w.u64(d.action.size());
    w.out.insert(w.out.end(), d.action.begin(), d.action.end());
    w.u64(d.at_generated);
    w.i32(d.level);
  }
  w.u64(snap.cert_cuts.size());
  for (const CutRecord& c : snap.cert_cuts) {
    w.u64(c.fingerprint);
    w.u8(static_cast<std::uint8_t>(c.rule));
    w.i64(c.claimed_bound);
    write_path(w, c.path);
  }

  // Frame it.
  const std::uint32_t crc = crc32(w.out);
  Writer framed;
  framed.out.reserve(w.out.size() + kHeaderBytes);
  for (char c : kMagic) framed.u8(static_cast<std::uint8_t>(c));
  framed.u32(SearchSnapshot::kFormatVersion);
  framed.u64(w.out.size());
  framed.u32(crc);
  framed.out.insert(framed.out.end(), w.out.begin(), w.out.end());
  return framed.out;
}

SearchSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes)
    throw SnapshotError("file shorter than the header (" +
                        std::to_string(bytes.size()) + " bytes)");
  Reader hdr{bytes, 0};
  for (char c : kMagic)
    if (hdr.u8() != static_cast<std::uint8_t>(c))
      throw SnapshotError("bad magic (not a parabb checkpoint)");
  const std::uint32_t version = hdr.u32();
  if (version != SearchSnapshot::kFormatVersion)
    throw SnapshotError("unsupported format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(SearchSnapshot::kFormatVersion) + ")");
  const std::uint64_t payload_len = hdr.u64();
  const std::uint32_t want_crc = hdr.u32();
  if (bytes.size() - kHeaderBytes != payload_len)
    throw SnapshotError("payload length " + std::to_string(payload_len) +
                        " disagrees with file size " +
                        std::to_string(bytes.size() - kHeaderBytes));
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderBytes);
  const std::uint32_t got_crc = crc32(payload);
  if (got_crc != want_crc)
    throw SnapshotError("CRC mismatch (stored " + std::to_string(want_crc) +
                        ", computed " + std::to_string(got_crc) +
                        "): checkpoint is corrupt");

  Reader r{payload, 0};
  SearchSnapshot s;
  s.instance = r.u64();
  const std::uint8_t engine = r.u8();
  if (engine > 1)
    throw SnapshotError("unknown engine tag " + std::to_string(engine));
  s.engine = static_cast<SnapshotEngine>(engine);

  s.found = r.u8() != 0;
  s.incumbent_cost = r.i64();
  s.incumbent.resize(r.count(24));
  for (ScheduledTask& st : s.incumbent) {
    st.task = r.i32();
    st.proc = r.i32();
    st.start = r.i64();
    st.finish = r.i64();
  }

  s.frontier.resize(r.count(20));
  for (SnapshotVertex& v : s.frontier) {
    v.path = read_path(r);
    v.lb = r.i64();
    v.seq = r.u32();
  }
  s.next_seq = r.u32();

  s.stats = read_stats(r);

  s.degrade_level = r.i32();
  s.compromised = r.u8() != 0;
  s.compromise_floor = r.i64();

  s.tt_present = r.u8() != 0;
  s.tt_counters.probes = r.u64();
  s.tt_counters.hits = r.u64();
  s.tt_counters.misses = r.u64();
  s.tt_counters.inserts = r.u64();
  s.tt_counters.evictions = r.u64();
  s.tt_counters.rejected = r.u64();
  s.tt_counters.collisions = r.u64();
  s.tt_entries.resize(r.count(16));
  for (SnapshotTTEntry& e : s.tt_entries) {
    e.path = read_path(r);
    e.lb = r.i64();
  }

  s.cert_present = r.u8() != 0;
  s.cert_truncated = r.u8() != 0;
  s.cert_degrades.resize(r.count(20));
  for (DegradeRecord& d : s.cert_degrades) {
    const std::size_t len = r.count(1);
    r.need(len);
    d.action.assign(reinterpret_cast<const char*>(payload.data()) + r.pos,
                    len);
    r.pos += len;
    d.at_generated = r.u64();
    d.level = r.i32();
  }
  s.cert_cuts.resize(r.count(25));
  for (CutRecord& c : s.cert_cuts) {
    c.fingerprint = r.u64();
    const std::uint8_t rule = r.u8();
    // 5 named a retired rule (verify/certificate.hpp).
    if (rule == 5 ||
        rule > static_cast<std::uint8_t>(CutRule::kCharacteristic))
      throw SnapshotError("unknown cut rule " + std::to_string(rule));
    c.rule = static_cast<CutRule>(rule);
    c.claimed_bound = r.i64();
    c.path = read_path(r);
  }
  if (r.pos != payload.size())
    throw SnapshotError("payload has " +
                        std::to_string(payload.size() - r.pos) +
                        " trailing bytes");
  return s;
}

std::size_t save_snapshot(const std::string& path,
                          const SearchSnapshot& snap) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw SnapshotError("cannot open " + tmp + ": " + std::strerror(errno));
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw SnapshotError("write to " + tmp + " failed: " +
                          std::strerror(e));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    const int e = errno;
    ::unlink(tmp.c_str());
    throw SnapshotError("fsync/close of " + tmp + " failed: " +
                        std::strerror(e));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int e = errno;
    ::unlink(tmp.c_str());
    throw SnapshotError("rename " + tmp + " -> " + path + " failed: " +
                        std::strerror(e));
  }
  return bytes.size();
}

SearchSnapshot load_snapshot(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw SnapshotError("cannot open " + path + ": " + std::strerror(errno));
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> buf;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(fd);
      throw SnapshotError("read of " + path + " failed: " +
                          std::strerror(e));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf.begin(), buf.begin() + n);
  }
  ::close(fd);
  try {
    return decode_snapshot(bytes);
  } catch (const SnapshotError& e) {
    std::string msg = e.what();
    const std::string prefix = "parabb checkpoint: ";
    if (msg.rfind(prefix, 0) == 0) msg = msg.substr(prefix.size());
    throw SnapshotError(path + ": " + msg);
  }
}

}  // namespace parabb
