#include "util/strutil.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace emissary
{

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const auto pos = text.find(sep, start);
        if (pos == std::string::npos) {
            parts.push_back(text.substr(start));
            return parts;
        }
        parts.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

bool
parseDecimal(const std::string &text, std::uint64_t max,
               std::uint64_t &out)
{
    // from_chars takes no sign or whitespace for an unsigned target
    // and reports overflow, so only the full-match check is left.
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc() || stop != end ||
        value > max)
        return false;
    out = value;
    return true;
}

std::string
toUpper(const std::string &text)
{
    std::string out = text;
    for (auto &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
}

std::string
formatDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
formatPercent(double fraction, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", decimals,
                  fraction * 100.0);
    return buf;
}

double
geomean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double r : ratios)
        log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace emissary
