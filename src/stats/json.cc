#include "stats/json.hh"

#include <cerrno>
#include <cmath>
#include <cstring>

#include "support/logging.hh"

namespace cherivoke {
namespace stats {

JsonWriter::JsonWriter(std::string path)
    : path_(std::move(path)), file_(std::fopen(path_.c_str(), "w"))
{
    if (!file_)
        fail();
    put("{");
    open('}', Layout::Block);
}

JsonWriter &
JsonWriter::field(std::string_view key, double value, int digits)
{
    char buf[32] = "null";
    if (std::isfinite(value))
        std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
    return member(&key, buf);
}

JsonWriter &
JsonWriter::beginObject(std::string_view key, Layout layout)
{
    return member(&key, "{").open('}', layout);
}

JsonWriter &
JsonWriter::beginArray(std::string_view key, Layout layout)
{
    return member(&key, "[").open(']', layout);
}

JsonWriter &
JsonWriter::beginObject(Layout layout)
{
    return member(nullptr, "{").open('}', layout);
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    return member(nullptr, quote(text));
}

JsonWriter &
JsonWriter::end()
{
    CHERIVOKE_ASSERT(!stack_.empty(), "(end() with no open container)");
    const Frame frame = stack_.back();
    stack_.pop_back();
    blockDepth_ -= frame.block;
    if (frame.block && !frame.empty)
        put("\n" + std::string(2 * blockDepth_, ' '));
    put(std::string_view(&frame.closer, 1));
    return *this;
}

void
JsonWriter::close()
{
    CHERIVOKE_ASSERT(stack_.size() == 1,
                     "(close() with a nested container still open)");
    end();
    put("\n");
    if (std::fclose(file_.release()) != 0)
        fail();
}

JsonWriter &
JsonWriter::member(const std::string_view *key, std::string_view text)
{
    CHERIVOKE_ASSERT(!stack_.empty(), "(write after close())");
    Frame &top = stack_.back();
    CHERIVOKE_ASSERT((key != nullptr) == (top.closer == '}'),
                     "(object members need a key, array elements none)");
    if (top.block)
        put((top.empty ? "\n" : ",\n") + std::string(2 * blockDepth_, ' '));
    else if (!top.empty)
        put(", ");
    top.empty = false;
    if (key)
        put(quote(*key) + ": ");
    put(text);
    return *this;
}

JsonWriter &
JsonWriter::open(char closer, Layout layout)
{
    stack_.push_back({closer, layout == Layout::Block, true});
    blockDepth_ += stack_.back().block;
    return *this;
}

std::string
JsonWriter::quote(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + '"';
}

void
JsonWriter::put(std::string_view text)
{
    if (std::fwrite(text.data(), 1, text.size(), file_.get()) !=
        text.size())
        fail();
}

void
JsonWriter::fail() const
{
    const int err = errno;
    // Benches print their tables before writing the artifact; flush
    // them so an uncaught fatal() does not discard them on abort.
    std::fflush(stdout);
    fatal("cannot write %s: %s", path_.c_str(), std::strerror(err));
}

} // namespace stats
} // namespace cherivoke
