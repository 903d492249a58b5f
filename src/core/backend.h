#pragma once
// Concurrency-control backends the runtime can execute atomic blocks with.
//
// The X-macro table below is the single source of truth: the enum, the
// printable names, parse(), and kAllBackends are all generated from it, so a
// new backend can never be visible to one and missing from another.

#include <array>
#include <string>

namespace tsx::core {

// X(enumerator, printable-name)
#define TSX_BACKEND_LIST(X)                                                    \
  X(kSeq, "SEQ")         /* no synchronization (sequential baseline) */       \
  X(kLock, "Lock")       /* one global ticket spinlock per atomic block */    \
  X(kRtm, "RTM")         /* HTM with serial-lock fallback (Algorithm 1) */    \
  X(kTinyStm, "TinySTM") /* TinySTM-style time-based STM */                   \
  X(kTl2, "TL2")         /* TL2 commit-time-locking STM */                    \
  X(kHle, "HLE")         /* hardware lock elision of one TAS lock (§I) */     \
  X(kCas, "CAS")         /* one global CAS-acquired test-and-set lock */      \
  X(kHybrid, "Hybrid")   /* HTM fast path with a TinySTM fallback (HyTM) */

enum class Backend {
#define TSX_BACKEND_ENUM(e, name) e,
  TSX_BACKEND_LIST(TSX_BACKEND_ENUM)
#undef TSX_BACKEND_ENUM
};

inline constexpr std::array kAllBackends = {
#define TSX_BACKEND_VALUE(e, name) Backend::e,
    TSX_BACKEND_LIST(TSX_BACKEND_VALUE)
#undef TSX_BACKEND_VALUE
};

inline const char* backend_name(Backend b) {
  switch (b) {
#define TSX_BACKEND_NAME(e, name) \
  case Backend::e:                \
    return name;
    TSX_BACKEND_LIST(TSX_BACKEND_NAME)
#undef TSX_BACKEND_NAME
  }
  return "?";
}

// Parses a backend name (as printed by backend_name, case-insensitive
// ASCII); returns false if unknown.
inline bool backend_from_name(const std::string& s, Backend* out) {
  auto eq = [&](const char* n) {
    if (s.size() != std::char_traits<char>::length(n)) return false;
    for (size_t i = 0; i < s.size(); ++i) {
      char a = s[i], b = n[i];
      if (a >= 'A' && a <= 'Z') a = static_cast<char>(a - 'A' + 'a');
      if (b >= 'A' && b <= 'Z') b = static_cast<char>(b - 'A' + 'a');
      if (a != b) return false;
    }
    return true;
  };
  for (Backend b : kAllBackends) {
    if (eq(backend_name(b))) {
      *out = b;
      return true;
    }
  }
  // Common aliases used by tm_fuzz and the docs.
  if (eq("stm") || eq("tinystm")) { *out = Backend::kTinyStm; return true; }
  if (eq("spinlock")) { *out = Backend::kLock; return true; }
  if (eq("hytm")) { *out = Backend::kHybrid; return true; }
  return false;
}

}  // namespace tsx::core
