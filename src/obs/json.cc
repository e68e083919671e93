#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ccai::obs
{

std::string
JsonEmitter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonEmitter::formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
JsonEmitter::newline(std::size_t depth)
{
    os_ << '\n';
    for (std::size_t i = 0; i < depth * indentWidth_; ++i)
        os_ << ' ';
}

void
JsonEmitter::prepare()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // key() already positioned us
    }
    if (stack_.empty())
        return; // top-level value
    Scope &scope = stack_.back();
    if (scope.count)
        os_ << ',';
    newline(stack_.size());
    ++scope.count;
}

JsonEmitter &
JsonEmitter::beginObject()
{
    prepare();
    os_ << '{';
    stack_.push_back({false, 0});
    return *this;
}

JsonEmitter &
JsonEmitter::endObject()
{
    std::size_t had = stack_.empty() ? 0 : stack_.back().count;
    if (!stack_.empty())
        stack_.pop_back();
    if (had)
        newline(stack_.size());
    os_ << '}';
    if (stack_.empty())
        os_ << '\n';
    return *this;
}

JsonEmitter &
JsonEmitter::beginArray()
{
    prepare();
    os_ << '[';
    stack_.push_back({true, 0});
    return *this;
}

JsonEmitter &
JsonEmitter::endArray()
{
    std::size_t had = stack_.empty() ? 0 : stack_.back().count;
    if (!stack_.empty())
        stack_.pop_back();
    if (had)
        newline(stack_.size());
    os_ << ']';
    return *this;
}

JsonEmitter &
JsonEmitter::key(std::string_view k)
{
    if (!stack_.empty()) {
        Scope &scope = stack_.back();
        if (scope.count)
            os_ << ',';
        newline(stack_.size());
        ++scope.count;
    }
    os_ << '"' << escape(k) << "\": ";
    pendingKey_ = true;
    return *this;
}

JsonEmitter &
JsonEmitter::value(std::string_view v)
{
    prepare();
    os_ << '"' << escape(v) << '"';
    return *this;
}

JsonEmitter &
JsonEmitter::value(bool v)
{
    prepare();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonEmitter &
JsonEmitter::value(double v)
{
    prepare();
    os_ << formatDouble(v);
    return *this;
}

JsonEmitter &
JsonEmitter::valueInt(std::int64_t v)
{
    prepare();
    os_ << v;
    return *this;
}

JsonEmitter &
JsonEmitter::valueUint(std::uint64_t v)
{
    prepare();
    os_ << v;
    return *this;
}

} // namespace ccai::obs
