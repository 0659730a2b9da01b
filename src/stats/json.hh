/**
 * @file
 * The one JSON writer behind every bench artifact (BENCH_*.json).
 *
 * The writer owns the file and places commas and indentation itself,
 * so an emitter only states keys and values; every call returns the
 * writer, so a row chains its fields. Containers are either Block
 * (one member per line, two spaces of indent per enclosing Block
 * container) or Inline (`{"a": 1, "b": 2}` on one line); a Block
 * container opened inside an Inline one still puts its members on
 * their own lines. The root is a Block object.
 *
 * It fails closed: an open, write or close failure raises fatal()
 * naming the file, so a bench can never report success while its
 * artifact is missing or truncated.
 */

#ifndef CHERIVOKE_STATS_JSON_HH
#define CHERIVOKE_STATS_JSON_HH

#include <concepts>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cherivoke {
namespace stats {

/** Streams one JSON document to a file, layout included. */
class JsonWriter
{
  public:
    /** How a container lays out its members. */
    enum class Layout { Block, Inline };

    /** Open @p path for writing and begin the root Block object. */
    explicit JsonWriter(std::string path);

    /** @name Object members: `"key": value` */
    /// @{
    /** Escaped: `"`, `\` and control characters. */
    JsonWriter &
    field(std::string_view key, std::string_view value)
    {
        return member(&key, quote(value));
    }
    /** `%.*g` with @p digits significant digits; null if not finite. */
    JsonWriter &field(std::string_view key, double value, int digits = 6);
    /** `true`/`false` for bool, else any unsigned integer, exactly. A
     *  template, so a string literal never converts to bool here. */
    template <std::unsigned_integral T>
    JsonWriter &
    field(std::string_view key, T value)
    {
        if constexpr (std::same_as<T, bool>)
            return member(&key, value ? "true" : "false");
        else
            return member(&key, std::to_string(value));
    }
    /// @}

    /** Open a container as an object member, or as an array element
     *  when there is no key. */
    JsonWriter &beginObject(std::string_view key, Layout layout);
    JsonWriter &beginArray(std::string_view key, Layout layout);
    JsonWriter &beginObject(Layout layout);
    /** A string array element. */
    JsonWriter &value(std::string_view text);
    /** Close the innermost container (an empty one prints {} / []). */
    JsonWriter &end();

    /** Close the root object, end the line and close the file. */
    void close();

  private:
    struct Frame
    {
        char closer;
        bool block;
        bool empty;
    };

    /** Write @p text as an object member (@p key non-null) or an
     *  array element, after the separator and indent it needs. */
    JsonWriter &member(const std::string_view *key, std::string_view text);
    JsonWriter &open(char closer, Layout layout);
    static std::string quote(std::string_view text);
    void put(std::string_view text);
    /** fatal() naming the file and the errno reason. */
    [[noreturn]] void fail() const;

    struct Closer
    {
        void operator()(std::FILE *file) const { std::fclose(file); }
    };

    std::string path_;
    std::unique_ptr<std::FILE, Closer> file_;
    std::vector<Frame> stack_;
    int blockDepth_ = 0;
};

} // namespace stats
} // namespace cherivoke

#endif // CHERIVOKE_STATS_JSON_HH
