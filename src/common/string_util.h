#ifndef FAASFLOW_COMMON_STRING_UTIL_H_
#define FAASFLOW_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace faasflow {

/** Splits on a single-character delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Removes leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/** printf-style std::string formatting. */
std::string strFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Joins items with a separator. */
std::string join(const std::vector<std::string>& items, std::string_view sep);

/** FNV-1a 64-bit offset basis: the state a fold starts from. */
inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/** One FNV-1a step: folds `byte` into the running hash `h`. */
constexpr uint64_t
fnv1aStep(uint64_t h, uint8_t byte)
{
    return (h ^ byte) * 0x100000001b3ULL;
}

/** Folds the bytes of `s`, in order, into the running hash `h`. */
constexpr uint64_t
fnv1aFold(uint64_t h, std::string_view s)
{
    for (const char c : s)
        h = fnv1aStep(h, static_cast<uint8_t>(c));
    return h;
}

/** Folds the 8 bytes of `v`, least significant first, into `h`. */
constexpr uint64_t
fnv1aFoldWord(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = fnv1aStep(h, static_cast<uint8_t>(v >> (8 * i)));
    return h;
}

/**
 * Stable 64-bit FNV-1a string hash. Used by the scheduler's first-iteration
 * hash partition so placements are identical across platforms/runs
 * (std::hash makes no such guarantee).
 */
constexpr uint64_t
fnv1a(std::string_view s)
{
    return fnv1aFold(kFnv1aBasis, s);
}

/**
 * Heterogeneous string hash for unordered containers: lets
 * `unordered_map<std::string, V, StringHash, std::equal_to<>>` be probed
 * with a `std::string_view` or `const char*` without materialising a
 * temporary `std::string` per lookup (the storage save/fetch hot path).
 */
struct StringHash
{
    using is_transparent = void;

    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
    size_t operator()(const std::string& s) const { return std::hash<std::string_view>{}(s); }
    size_t operator()(const char* s) const { return std::hash<std::string_view>{}(s); }
};

}  // namespace faasflow

#endif  // FAASFLOW_COMMON_STRING_UTIL_H_
