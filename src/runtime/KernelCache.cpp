//===- runtime/KernelCache.cpp ---------------------------------------------===//

#include "runtime/KernelCache.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

using namespace unit;

namespace {

bool isReady(const std::shared_future<KernelReport> &Fut) {
  return Fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::shared_future<KernelReport> readyFuture(const KernelReport &Report) {
  std::promise<KernelReport> P;
  P.set_value(Report);
  return P.get_future().share();
}

} // namespace

void KernelCache::touchLocked(const Entry &E) const {
  if (E.LruIt != Lru.begin())
    Lru.splice(Lru.begin(), Lru, E.LruIt);
}

void KernelCache::accountLocked(const std::string &Key, Entry &E) {
  size_t Now = entryBytesLocked(Key, E);
  BytesResident += Now - E.AccountedBytes;
  E.AccountedBytes = Now;
}

KernelCache::Entry &
KernelCache::insertLocked(const std::string &Key,
                          std::shared_future<KernelReport> Fut) {
  Lru.push_front(Key);
  Entry &E = Entries[Key];
  E.Fut = std::move(Fut);
  E.LruIt = Lru.begin();
  accountLocked(Key, E);
  return E;
}

void KernelCache::eraseLocked(const std::string &Key) {
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return;
  BytesResident -= It->second.AccountedBytes;
  Lru.erase(It->second.LruIt);
  Entries.erase(It);
}

void KernelCache::enforceCapacityLocked() {
  // Both caps read O(1) state: entry count, and the incrementally
  // maintained BytesResident — no per-insert walk over the cache.
  auto Over = [this] {
    return (MaxEntries != 0 && Entries.size() > MaxEntries) ||
           (MaxBytes != 0 && BytesResident > MaxBytes);
  };
  if (!Over())
    return;
  // Walk from the cold end; in-flight compiles are skipped — evicting one
  // would break the single-flight guarantee for its waiters' key.
  auto It = Lru.end();
  while (Over() && It != Lru.begin()) {
    --It;
    auto MapIt = Entries.find(*It);
    if (MapIt == Entries.end() || !isReady(MapIt->second.Fut))
      continue;
    BytesResident -= MapIt->second.AccountedBytes;
    It = Lru.erase(It);
    Entries.erase(MapIt);
    Evictions.fetch_add(1);
  }
}

KernelCache::ResolveKind
KernelCache::resolveThen(const std::string &Key, Waiter OnDone,
                         std::shared_future<KernelReport> *FutOut,
                         ComputeTicket *Ticket) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    auto Promise = std::make_shared<std::promise<KernelReport>>();
    Entry &E = insertLocked(Key, Promise->get_future().share());
    E.Waiters = std::make_shared<std::vector<Waiter>>();
    if (FutOut)
      *FutOut = E.Fut;
    if (Ticket) {
      Ticket->Promise = std::move(Promise);
      Ticket->Waiters = E.Waiters;
    }
    Misses.fetch_add(1);
    return ResolveKind::MustCompute;
  }
  Entry &E = It->second;
  touchLocked(E);
  Hits.fetch_add(1);
  if (FutOut)
    *FutOut = E.Fut;
  if (isReady(E.Fut))
    return ResolveKind::Ready;
  if (OnDone) {
    // In-flight entries always carry a waiter list (allocated above); the
    // defensive branch covers a hand-seeded entry only.
    if (!E.Waiters)
      E.Waiters = std::make_shared<std::vector<Waiter>>();
    E.Waiters->push_back(std::move(OnDone));
  }
  return ResolveKind::Joined;
}

void KernelCache::fulfill(const std::string &Key, ComputeTicket &Ticket,
                          const KernelReport &Report) {
  // Ready the future first: a resolveThen racing past this point sees
  // Ready and never registers a waiter we could miss — registration and
  // the drain-swap below are both serialized by Mu.
  Ticket.Promise->set_value(Report);
  std::vector<Waiter> ToFire;
  {
    // Capacity is enforced only once the winner is ready: the new entry
    // sits at the LRU front, so eviction hits the coldest ready keys.
    // Re-account it first — readiness grew it by the intrinsic name. The
    // waiter list is the entry's identity: insert()/clear() may have
    // displaced the slot mid-compile, in which case the usurper's
    // accounting (and waiter list) are its own and stay untouched.
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(Key);
    if (It != Entries.end() && It->second.Waiters == Ticket.Waiters) {
      accountLocked(Key, It->second);
      It->second.Waiters.reset();
    }
    enforceCapacityLocked();
    ToFire.swap(*Ticket.Waiters);
  }
  for (Waiter &W : ToFire)
    W(&Report, nullptr);
  Ticket.Promise.reset();
  Ticket.Waiters.reset();
}

void KernelCache::fail(const std::string &Key, ComputeTicket &Ticket,
                       std::exception_ptr Error) {
  std::vector<Waiter> ToFire;
  {
    // Evict before publishing the error so the key is immediately
    // retryable — an unfulfilled or failed promise must never poison the
    // slot. Identity-checked like fulfill(): if insert() replaced the
    // entry mid-compile, the usurper survives our failure. Swapping the
    // waiter list under the same lock means no joiner can slip in after
    // the erase (post-erase resolvers become fresh winners instead).
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(Key);
    if (It != Entries.end() && It->second.Waiters == Ticket.Waiters)
      eraseLocked(Key);
    ToFire.swap(*Ticket.Waiters);
  }
  Ticket.Promise->set_exception(Error);
  for (Waiter &W : ToFire)
    W(nullptr, Error);
  Ticket.Promise.reset();
  Ticket.Waiters.reset();
}

std::optional<KernelReport>
KernelCache::lookup(const std::string &Key) const {
  std::shared_future<KernelReport> Fut;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(Key);
    if (It == Entries.end())
      return std::nullopt;
    Fut = It->second.Fut;
    touchLocked(It->second);
  }
  if (!isReady(Fut))
    return std::nullopt;
  return Fut.get();
}

void KernelCache::insert(const std::string &Key, const KernelReport &Report) {
  std::shared_future<KernelReport> Fut = readyFuture(Report);
  std::lock_guard<std::mutex> Lock(Mu);
  eraseLocked(Key);
  insertLocked(Key, std::move(Fut));
  enforceCapacityLocked();
}

void KernelCache::erase(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  eraseLocked(Key);
}

bool KernelCache::contains(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.count(Key) != 0;
}

size_t KernelCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Entries.clear();
  Lru.clear();
  BytesResident = 0;
}


KernelCache::CacheStats KernelCache::stats() const {
  CacheStats S;
  S.Hits = Hits.load();
  S.Misses = Misses.load();
  S.Evictions = Evictions.load();
  std::lock_guard<std::mutex> Lock(Mu);
  S.Entries = Entries.size();
  for (const auto &KV : Entries)
    S.BytesUsed += entryBytesLocked(KV.first, KV.second);
  return S;
}

size_t KernelCache::entryBytesLocked(const std::string &Key,
                                     const Entry &E) const {
  // The key is resident twice — once as the hash-map key, once as the LRU
  // list node — and a ready report owns its intrinsic-name string. The
  // fixed part approximates the map node, the LRU node links, and the
  // future's shared state.
  size_t Bytes = 2 * Key.size() + sizeof(Entry) + sizeof(KernelReport) +
                 3 * sizeof(void *);
  if (isReady(E.Fut))
    Bytes += E.Fut.get().IntrinsicName.size();
  return Bytes;
}

size_t KernelCache::bytesUsed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t Total = 0;
  for (const auto &KV : Entries)
    Total += entryBytesLocked(KV.first, KV.second);
  return Total;
}

std::vector<KernelCache::EntrySize>
KernelCache::entrySizes(size_t MaxKeyBytes) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<EntrySize> Sizes;
  Sizes.reserve(Entries.size());
  for (const std::string &Key : Lru) {
    auto It = Entries.find(Key);
    if (It == Entries.end())
      continue;
    EntrySize S;
    S.Key = MaxKeyBytes > 0 ? Key.substr(0, MaxKeyBytes) : Key;
    S.Bytes = entryBytesLocked(Key, It->second);
    S.Ready = isReady(It->second.Fut);
    Sizes.push_back(std::move(S));
  }
  return Sizes;
}

//===----------------------------------------------------------------------===//
// Fleet exchange: per-entry export / import
//===----------------------------------------------------------------------===//

std::vector<KernelCache::ExportedEntry>
KernelCache::exportReady(size_t MaxBytes,
                         const std::vector<std::string> *Keys) const {
  // Approximate wire cost per entry: the key and intrinsic name dominate;
  // the constant covers JSON framing and the numeric fields.
  auto WireBytes = [](const std::string &Key, const KernelReport &R) {
    return Key.size() + R.IntrinsicName.size() + 128;
  };
  std::vector<ExportedEntry> Out;
  size_t Budget = 0;
  std::lock_guard<std::mutex> Lock(Mu);
  auto TakeLocked = [&](const std::string &Key) {
    auto It = Entries.find(Key);
    if (It == Entries.end() || !isReady(It->second.Fut))
      return true;
    KernelReport R = It->second.Fut.get();
    size_t Cost = WireBytes(Key, R);
    if (MaxBytes != 0 && Budget + Cost > MaxBytes)
      return false; // Budget exhausted — stop the walk.
    Budget += Cost;
    Out.push_back({Key, std::move(R)});
    return true;
  };
  if (Keys) {
    for (const std::string &Key : *Keys)
      if (!TakeLocked(Key))
        break;
  } else {
    // LRU front first: under a byte cap the hottest entries make the cut.
    for (const std::string &Key : Lru)
      if (!TakeLocked(Key))
        break;
  }
  return Out;
}

size_t KernelCache::importReady(const std::vector<ExportedEntry> &NewEntries) {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t Inserted = 0;
  for (const ExportedEntry &E : NewEntries) {
    if (E.Key.empty() || Entries.count(E.Key))
      continue; // Live (possibly in-flight) entries win over the peer's.
    insertLocked(E.Key, readyFuture(E.Report));
    ++Inserted;
  }
  enforceCapacityLocked();
  return Inserted;
}

//===----------------------------------------------------------------------===//
// Disk persistence
//===----------------------------------------------------------------------===//
//
// Text format, length-prefixed so keys and intrinsic names may contain any
// byte but '\n'-framing stays parseable:
//
//   UNITKC 1
//   fingerprint <len>
//   <fingerprint bytes>
//   entries <count>
//   entry <keylen> <intrlen> <tensorized> <bestidx> <tried> <seconds %a>
//   <key bytes>
//   <intrinsic bytes>
//   ... (repeated)
//
// Doubles round-trip exactly via hex-float (%a) formatting.

static const char *KernelCacheMagic = "UNITKC 1";

size_t KernelCache::save(std::ostream &Out,
                         const std::string &Fingerprint) const {
  // Snapshot under the lock, write outside it.
  std::vector<std::pair<std::string, KernelReport>> Ready;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Ready.reserve(Entries.size());
    for (const std::string &Key : Lru) {
      auto It = Entries.find(Key);
      if (It == Entries.end() || !isReady(It->second.Fut))
        continue;
      Ready.emplace_back(Key, It->second.Fut.get());
    }
  }
  Out << KernelCacheMagic << "\n";
  Out << "fingerprint " << Fingerprint.size() << "\n" << Fingerprint << "\n";
  Out << "entries " << Ready.size() << "\n";
  for (const auto &KV : Ready) {
    const KernelReport &R = KV.second;
    Out << "entry " << KV.first.size() << " " << R.IntrinsicName.size() << " "
        << (R.Tensorized ? 1 : 0) << " " << R.BestCandidateIndex << " "
        << R.CandidatesTried << " " << formatStr("%a", R.Seconds) << "\n";
    Out << KV.first << "\n";
    Out << R.IntrinsicName << "\n";
  }
  return Ready.size();
}

namespace {

/// Upper bounds on file-supplied sizes. A corrupted length or count field
/// must surface as BadFormat, never as a std::length_error / bad_alloc
/// escaping the documented no-throw LoadResult contract.
constexpr size_t MaxFramedBytes = 1u << 20;  ///< Per string (keys are ~KB).
constexpr size_t MaxLoadEntries = 1u << 22;  ///< Per file.

/// Reads exactly \p Len bytes followed by a '\n' frame terminator.
bool readFramed(std::istream &In, size_t Len, std::string &Out) {
  if (Len > MaxFramedBytes)
    return false;
  Out.resize(Len);
  if (Len > 0 && !In.read(&Out[0], static_cast<std::streamsize>(Len)))
    return false;
  return In.get() == '\n';
}

} // namespace

KernelCache::LoadResult KernelCache::load(std::istream &In,
                                          const std::string &Fingerprint) {
  LoadResult Result;
  std::string Line;
  if (!std::getline(In, Line) || Line != KernelCacheMagic)
    return Result; // BadFormat

  std::string Tag;
  size_t FpLen = 0;
  if (!(In >> Tag >> FpLen) || Tag != "fingerprint" || In.get() != '\n')
    return Result;
  std::string FileFingerprint;
  if (!readFramed(In, FpLen, FileFingerprint))
    return Result;
  if (FileFingerprint != Fingerprint) {
    Result.Status = LoadStatus::FingerprintMismatch;
    return Result;
  }

  size_t Count = 0;
  if (!(In >> Tag >> Count) || Tag != "entries" || In.get() != '\n' ||
      Count > MaxLoadEntries)
    return Result;

  // All-or-nothing: parse everything before touching the cache. The
  // reservation is capped — Count is untrusted until the entries parse.
  std::vector<std::pair<std::string, KernelReport>> Parsed;
  Parsed.reserve(std::min<size_t>(Count, 4096));
  for (size_t I = 0; I < Count; ++I) {
    size_t KeyLen = 0, IntrLen = 0;
    int Tensorized = 0;
    KernelReport R;
    std::string SecondsTok;
    if (!(In >> Tag >> KeyLen >> IntrLen >> Tensorized >>
          R.BestCandidateIndex >> R.CandidatesTried >> SecondsTok) ||
        Tag != "entry" || In.get() != '\n')
      return Result;
    char *End = nullptr;
    R.Seconds = std::strtod(SecondsTok.c_str(), &End);
    if (End == SecondsTok.c_str() || *End != '\0')
      return Result;
    R.Tensorized = Tensorized != 0;
    std::string Key;
    if (!readFramed(In, KeyLen, Key) ||
        !readFramed(In, IntrLen, R.IntrinsicName))
      return Result;
    Parsed.emplace_back(std::move(Key), std::move(R));
  }

  {
    std::lock_guard<std::mutex> Lock(Mu);
    // File order is hottest-first; walking it forward keeps that recency
    // order in the rebuilt LRU list (each insert lands at the front, so
    // later == colder... hence iterate coldest-first).
    for (auto It = Parsed.rbegin(); It != Parsed.rend(); ++It) {
      if (Entries.count(It->first))
        continue; // Live (possibly in-flight) entries win over disk.
      insertLocked(It->first, readyFuture(It->second));
      ++Result.EntriesLoaded;
    }
    enforceCapacityLocked();
  }
  Result.Status = LoadStatus::Loaded;
  return Result;
}

std::optional<size_t>
KernelCache::saveFile(const std::string &Path,
                      const std::string &Fingerprint) const {
  // Write-then-rename: a crash (or a concurrent reader) mid-save must
  // never leave a truncated file at Path — the all-or-nothing loader
  // would reject it and silently cost the next run its warm start. The
  // temp name is unique per process *and* per call (the cache is
  // documented thread-safe, so two threads may save one path
  // concurrently) — writers can never interleave into one temp and
  // rename garbage into place; the last completed rename wins and every
  // published snapshot is internally consistent.
  static std::atomic<uint64_t> SaveSerial{0};
  const std::string TmpPath = Path + ".tmp." + std::to_string(::getpid()) +
                              "." + std::to_string(SaveSerial.fetch_add(1));

  // Serialize to memory first, then write through a raw fd so the temp
  // file can be fsync'd *before* the rename — rename is atomic in the
  // namespace but says nothing about data blocks; without the fsync a
  // power cut shortly after publishing could leave Path pointing at a
  // zero-length or torn file. (ofstream has no portable way to sync.)
  std::ostringstream Buffer;
  size_t N = save(Buffer, Fingerprint);
  const std::string Bytes = Buffer.str();

  int Fd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return std::nullopt;
  size_t Written = 0;
  bool Ok = true;
  while (Ok && Written < Bytes.size()) {
    ssize_t W = ::write(Fd, Bytes.data() + Written, Bytes.size() - Written);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Ok = false;
    } else {
      Written += static_cast<size_t>(W);
    }
  }
  Ok = Ok && ::fsync(Fd) == 0;
  Ok = ::close(Fd) == 0 && Ok;
  if (!Ok || std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return std::nullopt;
  }

  // Make the rename itself durable: sync the containing directory, best
  // effort (a read-only or unsupported-directory fsync must not turn a
  // published save into a reported failure).
  size_t Slash = Path.find_last_of('/');
  const std::string Dir = Slash == std::string::npos
                              ? std::string(".")
                              : Path.substr(0, Slash == 0 ? 1 : Slash);
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  return N;
}

void KernelCache::removeStaleSaves(const std::string &Path) {
  std::string Dir = ".", Base = Path;
  size_t Slash = Path.find_last_of('/');
  if (Slash != std::string::npos) {
    Dir = Path.substr(0, Slash);
    Base = Path.substr(Slash + 1);
  }
  const std::string Prefix = Base + ".tmp.";
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  while (dirent *E = ::readdir(D))
    if (std::strncmp(E->d_name, Prefix.c_str(), Prefix.size()) == 0)
      ::unlink((Dir + "/" + E->d_name).c_str());
  ::closedir(D);
}

KernelCache::LoadResult
KernelCache::loadFile(const std::string &Path,
                      const std::string &Fingerprint) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    LoadResult R;
    R.Status = LoadStatus::FileNotFound;
    return R;
  }
  return load(In, Fingerprint);
}
