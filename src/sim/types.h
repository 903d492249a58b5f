#pragma once
// Fundamental types shared across the tsxsim machine model.

#include <cstdint>

namespace tsx::sim {

using Addr = uint64_t;    // simulated byte address (data ops are word-aligned)
using Word = uint64_t;    // simulated memory is word (8 B) granular
using Cycles = uint64_t;  // simulated CPU cycles
using CtxId = uint32_t;   // hardware thread id, 0..kMaxCtxs-1

inline constexpr uint32_t kLineBytes = 64;
inline constexpr uint32_t kPageBytes = 4096;
inline constexpr uint32_t kWordBytes = 8;
inline constexpr uint32_t kWordsPerPage = kPageBytes / kWordBytes;
inline constexpr uint32_t kMaxCtxs = 8;

inline constexpr uint64_t line_of(Addr a) { return a / kLineBytes; }
inline constexpr uint64_t page_of(Addr a) { return a / kPageBytes; }

// Internal (precise) abort causes. The *architectural* view reported to
// software collapses some of these, exactly as the paper observes on real
// Haswell: read-capacity aborts are indistinguishable from data conflicts
// (both raise the CONFLICT status bit and count toward MISC1).
enum class AbortReason : uint8_t {
  kNone = 0,
  kConflict,         // another hw thread touched a tx line (requester wins)
  kReadCapacity,     // tx-read line evicted from L3
  kWriteCapacity,    // tx-written line evicted from L1
  kExplicit,         // _xabort(code)
  kPageFault,        // first-touch minor fault inside a transaction
  kInterrupt,        // asynchronous event (timer interrupt)
  kUnsupportedInsn,  // TSX-unfriendly instruction executed in a transaction
  kCount,
};

const char* abort_reason_name(AbortReason r);

// TSX RTM status word bits, mirroring Intel's _XABORT_* layout.
namespace xstatus {
inline constexpr uint32_t kStarted = ~0u;  // sentinel: _XBEGIN_STARTED
inline constexpr uint32_t kExplicit = 1u << 0;
inline constexpr uint32_t kRetry = 1u << 1;
inline constexpr uint32_t kConflict = 1u << 2;
inline constexpr uint32_t kCapacity = 1u << 3;
inline constexpr uint32_t kDebug = 1u << 4;
inline constexpr uint32_t kNested = 1u << 5;
inline constexpr uint32_t code_shift = 24;

inline constexpr uint32_t pack_code(uint8_t code) {
  return static_cast<uint32_t>(code) << code_shift;
}
inline constexpr uint8_t unpack_code(uint32_t status) {
  return static_cast<uint8_t>(status >> code_shift);
}
}  // namespace xstatus

// Builds the architectural status word for an internal abort reason.
uint32_t status_for_abort(AbortReason r, uint8_t explicit_code);

// Intel-style performance-counter buckets (RTM_RETIRED:ABORTED_MISCn).
// Documented mapping (the authoritative table; tests/test_types_misc.cpp
// asserts it exhaustively):
//   MISC1  data conflicts                        <- kConflict
//   MISC2  capacity (read- or write-set overflow)<- kReadCapacity,
//                                                   kWriteCapacity
//   MISC3  explicit / page fault / unsupported   <- kExplicit, kPageFault,
//          instruction                              kUnsupportedInsn
//   MISC4  incompatible memory type — cannot occur in this simulator
//          (sentinel bucket, intentionally unreachable)
//   MISC5  everything else (asynchronous events) <- kInterrupt
// Note the counters are *finer* than the architectural status word: a read-
// capacity abort raises the CONFLICT status bit (status_for_abort), yet the
// counters bucket it under MISC2. The paper's Fig. 12 conflict/read-capacity
// merge is a reporting-layer choice (htm::AbortClass), not a counter one.
enum class MiscBucket : uint8_t { kMisc1 = 0, kMisc2, kMisc3, kMisc4, kMisc5, kCount };
MiscBucket misc_bucket_for(AbortReason r);

}  // namespace tsx::sim
