#include "stats/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <limits>
#include <stdexcept>

namespace emissary::stats
{

JsonValue::JsonValue(std::int64_t value)
{
    // Counters come in as unsigned; keep the sign split canonical so
    // equality and round-trips do not depend on which ctor was used.
    if (value >= 0) {
        type_ = Type::Uint;
        uint_ = static_cast<std::uint64_t>(value);
    } else {
        type_ = Type::Int;
        int_ = value;
    }
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = Type::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = Type::Object;
    return v;
}

JsonValue &
JsonValue::push(JsonValue value)
{
    if (type_ != Type::Array)
        throw std::domain_error("JsonValue::push: not an array");
    array_.push_back(std::move(value));
    return array_.back();
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue value)
{
    if (type_ != Type::Object)
        throw std::domain_error("JsonValue::set: not an object");
    for (auto &[existing, stored] : object_) {
        if (existing == key) {
            stored = std::move(value);
            return stored;
        }
    }
    object_.emplace_back(key, std::move(value));
    return object_.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[existing, stored] : object_)
        if (existing == key)
            return &stored;
    return nullptr;
}

JsonValue *
JsonValue::find(const std::string &key)
{
    if (type_ != Type::Object)
        return nullptr;
    for (auto &[existing, stored] : object_)
        if (existing == key)
            return &stored;
    return nullptr;
}

std::size_t
JsonValue::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    if (type_ != Type::Array)
        throw std::domain_error("JsonValue::at: not an array");
    return array_.at(index);
}

JsonValue &
JsonValue::at(std::size_t index)
{
    if (type_ != Type::Array)
        throw std::domain_error("JsonValue::at: not an array");
    return array_.at(index);
}

bool
JsonValue::asBool() const
{
    if (type_ != Type::Bool)
        throw std::domain_error("JsonValue::asBool: not a bool");
    return bool_;
}

std::uint64_t
JsonValue::asUint() const
{
    if (type_ == Type::Uint)
        return uint_;
    if (type_ == Type::Int && int_ >= 0)
        return static_cast<std::uint64_t>(int_);
    throw std::domain_error("JsonValue::asUint: not a non-negative "
                            "integer");
}

std::int64_t
JsonValue::asInt() const
{
    if (type_ == Type::Int)
        return int_;
    if (type_ == Type::Uint) {
        if (uint_ > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max()))
            throw std::domain_error(
                "JsonValue::asInt: value exceeds int64");
        return static_cast<std::int64_t>(uint_);
    }
    throw std::domain_error("JsonValue::asInt: not an integer");
}

double
JsonValue::asDouble() const
{
    switch (type_) {
      case Type::Double:
        return double_;
      case Type::Uint:
        return static_cast<double>(uint_);
      case Type::Int:
        return static_cast<double>(int_);
      default:
        throw std::domain_error("JsonValue::asDouble: not a number");
    }
}

const std::string &
JsonValue::asString() const
{
    if (type_ != Type::String)
        throw std::domain_error("JsonValue::asString: not a string");
    return string_;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    // Int/Uint compare numerically (the parser canonicalises
    // non-negative integers to Uint, but be safe about mixes).
    if (isNumber() && other.isNumber()) {
        if (type_ == Type::Double || other.type_ == Type::Double)
            return asDouble() == other.asDouble();
        if (type_ == Type::Int || other.type_ == Type::Int) {
            const bool neg_a = type_ == Type::Int && int_ < 0;
            const bool neg_b =
                other.type_ == Type::Int && other.int_ < 0;
            if (neg_a != neg_b)
                return false;
            if (neg_a)
                return int_ == other.int_;
        }
        return asUint() == other.asUint();
    }
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null:
        return true;
      case Type::Bool:
        return bool_ == other.bool_;
      case Type::String:
        return string_ == other.string_;
      case Type::Array:
        return array_ == other.array_;
      case Type::Object:
        return object_ == other.object_;
      default:
        return false;  // Numbers handled above.
    }
}

std::string
JsonValue::escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;  // UTF-8 bytes pass through untouched.
            }
        }
    }
    return out;
}

namespace
{

void
appendDouble(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out += "null";
        return;
    }
    char buf[32];
    // Shortest round-trippable form: try increasing precision.
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    out += buf;
    // Keep integers recognisably floating ("1.0", not "1") so a
    // round trip preserves the double type.
    if (out.find_first_of(".eE", out.size() - std::strlen(buf)) ==
        std::string::npos)
        out += ".0";
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int level) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) * level, ' ');
        }
    };

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        out += std::to_string(int_);
        break;
      case Type::Uint:
        out += std::to_string(uint_);
        break;
      case Type::Double:
        appendDouble(out, double_);
        break;
      case Type::String:
        out += '"';
        out += escape(string_);
        out += '"';
        break;
      case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i > 0)
                out += ",";
            newline(depth + 1);
            out += '"';
            out += escape(object_[i].first);
            out += indent > 0 ? "\": " : "\":";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

/** Recursive-descent parser over a complete document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    document()
    {
        skipWs();
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::invalid_argument(
            "JSON parse error at offset " + std::to_string(pos_) +
            ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *literal)
    {
        const std::size_t n = std::strlen(literal);
        if (text_.compare(pos_, n, literal) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    unsigned
    hex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
        }
        return code;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("truncated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned code = hex4();
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: a low surrogate must follow.
                    if (!consumeLiteral("\\u"))
                        fail("lone high surrogate");
                    const unsigned low = hex4();
                    if (low < 0xDC00 || low > 0xDFFF)
                        fail("bad low surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                } else if (code >= 0xDC00 && code <= 0xDFFF) {
                    fail("lone low surrogate");
                }
                appendUtf8(out, code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            fail("malformed number");
        const bool leading_zero = peek() == '0';
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (leading_zero &&
            pos_ - start - (text_[start] == '-' ? 1 : 0) > 1)
            fail("leading zero in number");
        bool is_double = false;
        if (peek() == '.') {
            is_double = true;
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                fail("malformed fraction");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            is_double = true;
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                fail("malformed exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (!is_double) {
            errno = 0;
            if (token[0] == '-') {
                char *end = nullptr;
                const long long v =
                    std::strtoll(token.c_str(), &end, 10);
                if (errno != ERANGE && end == token.c_str() + token.size())
                    return JsonValue(static_cast<std::int64_t>(v));
            } else {
                char *end = nullptr;
                const unsigned long long v =
                    std::strtoull(token.c_str(), &end, 10);
                if (errno != ERANGE && end == token.c_str() + token.size())
                    return JsonValue(static_cast<std::uint64_t>(v));
            }
            // Integer overflowed 64 bits: fall back to double.
        }
        return JsonValue(std::strtod(token.c_str(), nullptr));
    }

    JsonValue
    value()
    {
        if (depth_ > kMaxDepth)
            fail("nesting too deep");
        switch (peek()) {
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue();
            fail("bad literal");
          case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("bad literal");
          case '"':
            return JsonValue(string());
          case '[': {
            ++pos_;
            ++depth_;
            JsonValue arr = JsonValue::array();
            skipWs();
            if (peek() == ']') {
                ++pos_;
                --depth_;
                return arr;
            }
            while (true) {
                skipWs();
                arr.push(value());
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                --depth_;
                return arr;
            }
          }
          case '{': {
            ++pos_;
            ++depth_;
            JsonValue obj = JsonValue::object();
            skipWs();
            if (peek() == '}') {
                ++pos_;
                --depth_;
                return obj;
            }
            while (true) {
                skipWs();
                const std::string key = string();
                skipWs();
                expect(':');
                skipWs();
                obj.set(key, value());
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                --depth_;
                return obj;
            }
          }
          default:
            return number();
        }
    }

    static constexpr int kMaxDepth = 256;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).document();
}

void
writeJsonFile(const std::string &path, const JsonValue &value)
{
    // Artifact paths routinely point into directories that do not
    // exist yet (EMISSARY_BENCH_JSON, the service's --cache-dir):
    // create the parents rather than failing on open, and name the
    // directory when creation itself fails.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec)
            throw std::runtime_error(
                "writeJsonFile: cannot create directory '" +
                parent.string() + "' for '" + path +
                "': " + ec.message());
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("writeJsonFile: cannot open '" +
                                 path + "'");
    out << value.dump(2) << '\n';
    out.flush();
    if (!out)
        throw std::runtime_error("writeJsonFile: write failed for '" +
                                 path + "'");
}

} // namespace emissary::stats
