/**
 * @file
 * Minimal streaming JSON emitter shared by the metrics snapshot, the
 * Chrome trace exporter and every BENCH_*.json writer. One emitter
 * means one escaping policy and one number format: strings are
 * escaped per RFC 8259, doubles are printed with the shortest
 * round-trippable precision, and non-finite values degrade to null
 * instead of producing invalid JSON — the drift the per-bench
 * hand-rolled fprintf writers used to have.
 */

#ifndef CCAI_OBS_JSON_HH
#define CCAI_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ccai::obs
{

/**
 * Streaming JSON writer with pretty-printing. Structural calls
 * (begin/end object/array, key, value) must follow JSON grammar;
 * violations trip an assert in debug builds and emit best-effort
 * output otherwise.
 */
class JsonEmitter
{
  public:
    explicit JsonEmitter(std::ostream &os, int indentWidth = 2)
        : os_(os), indentWidth_(indentWidth)
    {}

    JsonEmitter &beginObject();
    JsonEmitter &endObject();
    JsonEmitter &beginArray();
    JsonEmitter &endArray();

    /** Emit an object key; the next call must produce its value. */
    JsonEmitter &key(std::string_view k);

    JsonEmitter &value(std::string_view v);
    JsonEmitter &value(const char *v) { return value(std::string_view(v)); }
    JsonEmitter &value(const std::string &v)
    {
        return value(std::string_view(v));
    }
    JsonEmitter &value(bool v);
    JsonEmitter &value(double v);

    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    JsonEmitter &
    value(T v)
    {
        if constexpr (std::is_signed_v<T>)
            return valueInt(static_cast<std::int64_t>(v));
        else
            return valueUint(static_cast<std::uint64_t>(v));
    }

    /** key(k) followed by value(v). */
    template <typename T>
    JsonEmitter &
    field(std::string_view k, T &&v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

    /** Escape @p s per RFC 8259 (without surrounding quotes). */
    static std::string escape(std::string_view s);

    /**
     * Shortest decimal form of @p v that parses back bit-exactly;
     * "null" for NaN/inf (JSON has no encoding for them).
     */
    static std::string formatDouble(double v);

  private:
    struct Scope
    {
        bool isArray = false;
        std::size_t count = 0;
    };

    JsonEmitter &valueInt(std::int64_t v);
    JsonEmitter &valueUint(std::uint64_t v);

    /** Comma/newline/indent housekeeping before a value or key. */
    void prepare();
    void newline(std::size_t depth);
    void raw(std::string_view s) { os_ << s; }

    std::ostream &os_;
    int indentWidth_;
    std::vector<Scope> stack_;
    bool pendingKey_ = false;
};

} // namespace ccai::obs

#endif // CCAI_OBS_JSON_HH
