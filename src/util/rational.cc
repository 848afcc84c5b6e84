#include "util/rational.hh"

#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/rng.hh"
#include "util/strutil.hh"

namespace emissary
{

Rational::Rational(std::uint64_t num, std::uint64_t den)
    : num_(num), den_(den)
{
    if (den_ == 0)
        throw std::invalid_argument("Rational: zero denominator");
    if (num_ > den_)
        throw std::invalid_argument("Rational: probability above one");
    const std::uint64_t g = std::gcd(num_ == 0 ? den_ : num_, den_);
    num_ /= g;
    den_ /= g;
}

double
Rational::value() const
{
    return static_cast<double>(num_) / static_cast<double>(den_);
}

bool
Rational::draw(Rng &rng) const
{
    if (isOne())
        return true;
    if (isZero())
        return false;
    if (num_ == 1)
        return rng.oneIn(den_);
    return rng.nextBelow(den_) < num_;
}

std::string
Rational::toString() const
{
    if (den_ == 1)
        return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational
Rational::parse(const std::string &text)
{
    const auto slash = text.find('/');
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t num = 0;
    std::uint64_t den = 1;
    const bool parsed =
        slash == std::string::npos
            ? parseDecimal(text, max, num)
            : parseDecimal(text.substr(0, slash), max, num) &&
                  parseDecimal(text.substr(slash + 1), max, den);
    if (!parsed)
        throw std::invalid_argument("Rational: cannot parse '" + text +
                                    "'");
    return Rational(num, den);
}

bool
Rational::operator==(const Rational &other) const
{
    return num_ == other.num_ && den_ == other.den_;
}

} // namespace emissary
