/**
 * @file
 * Minimal shared JSON output helpers.
 *
 * Several subsystems emit machine-readable JSON (fs-lint reports,
 * the serve tools, bench summaries). Before this header each
 * of them hand-rolled its own string building and none escaped
 * embedded quotes or backslashes in names. escape() implements the
 * full RFC 8259 string escaping rules, and Writer is a small
 * comma-tracking streaming writer for flat report objects. This is an
 * output-side helper only; the repo deliberately has no general JSON
 * parser.
 */

#ifndef FS_UTIL_JSON_H_
#define FS_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fs {
namespace util {
namespace json {

/** Append `s` to `out` with JSON string escaping (no quotes added). */
void appendEscaped(std::string &out, std::string_view s);

/** `s` with quotes/backslashes/control characters escaped. */
std::string escape(std::string_view s);

/**
 * Streaming writer for JSON values. Commas are inserted
 * automatically; the caller is responsible for well-formed nesting
 * (every beginObject/beginArray matched by its end call, key() before
 * every object member).
 */
class Writer
{
  public:
    /**
     * @param double_digits significant digits used for doubles
     *        (printf %g precision); the default round-trips exactly.
     */
    explicit Writer(int double_digits = 17)
        : double_digits_(double_digits)
    {
    }

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Member key inside an object (escaped). */
    Writer &key(std::string_view k);

    Writer &value(std::string_view v); ///< escaped string value
    Writer &value(const char *v) { return value(std::string_view(v)); }
    Writer &value(double v);
    Writer &value(bool v);

    /** Any integer type (exact decimal rendering, no double detour). */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Writer &
    value(T v)
    {
        appendInteger(std::to_string(v));
        return *this;
    }

    /** Pre-rendered JSON inserted verbatim (e.g. a nested object). */
    Writer &raw(std::string_view v);

    const std::string &str() const { return out_; }

  private:
    void beforeValue();
    void appendInteger(const std::string &digits);

    std::string out_;
    int double_digits_;
    /** One entry per open container: true once it holds a value. */
    std::vector<bool> has_value_;
};

} // namespace json
} // namespace util
} // namespace fs

#endif // FS_UTIL_JSON_H_
