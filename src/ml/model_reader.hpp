/**
 * @file
 * Token reader behind the gpupm-rf v1 model loaders (see
 * ml/serialize.hpp); internal to gpupm_ml.
 *
 * ModelReader works on the caller's std::streambuf one character at a
 * time (sgetc/snextc) and converts numbers with std::from_chars, so a
 * token costs no stream sentry, locale facet or num_get call. It
 * consumes exactly the bytes `is >> word` into a std::string would:
 * the whitespace before a token and the token, never the byte after
 * it. A reader therefore holds no byte it has not handed out;
 * DecisionTree::load, readForestHeader and loadRandomForest each run
 * their own reader on one stream, and a stream holding a model
 * followed by anything else is left positioned right after the
 * model's last token. Nothing beyond the current token is copied.
 *
 * There is one parser per record: DecisionTree::load reads a tree and
 * readForestHeader a forest's header, whether the trees go into a
 * RandomForest or straight into a FlatForest arena.
 */

#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstddef>
#include <istream>
#include <string_view>
#include <system_error>

namespace gpupm::ml::detail {

class ModelReader
{
  public:
    /**
     * Longest token a model field can be (a max_digits10 double is at
     * most 24 characters); a longer token is malformed.
     */
    static constexpr std::size_t maxToken = 64;

    /** Read @p is; a stream that is already failed or at end is empty. */
    explicit ModelReader(std::istream &is)
        : _is(is), _buf(is.good() ? is.rdbuf() : nullptr)
    {
    }

    /**
     * The next whitespace-delimited token, valid until the next call.
     * Empty at end of stream and for a token longer than maxToken;
     * either is malformed wherever a token is expected. Reaching end
     * of stream sets the stream's eofbit, as operator>> does.
     */
    std::string_view
    token()
    {
        using traits = std::istream::traits_type;
        if (!_buf)
            return {_text.data(), 0};
        int c = _buf->sgetc();
        while (c != traits::eof() && isSpace(c))
            c = _buf->snextc();
        std::size_t len = 0;
        while (c != traits::eof() && !isSpace(c)) {
            if (len < maxToken)
                _text[len] = traits::to_char_type(c);
            ++len;
            c = _buf->snextc();
        }
        if (c == traits::eof())
            _is.setstate(std::ios::eofbit);
        return {_text.data(), len > maxToken ? 0 : len};
    }

    /**
     * Parse the next token as a @p T; false unless the whole token is
     * a number of std::from_chars' grammar (no '+', no hex) within
     * T's range. Floating-point tokens may spell nan or inf, so
     * callers check finiteness themselves.
     */
    template <typename T>
    bool
    number(T &out)
    {
        const std::string_view s = token();
        const char *end = s.data() + s.size();
        const auto [ptr, ec] = std::from_chars(s.data(), end, out);
        return ec == std::errc() && ptr == end;
    }

  private:
    /** The classic locale's isspace, which operator>> applies. */
    static bool
    isSpace(int c)
    {
        return c == ' ' || (c >= '\t' && c <= '\r');
    }

    std::istream &_is;
    std::streambuf *_buf;
    std::array<char, maxToken> _text{};
};

/**
 * Read the "forest trees <n>" header RandomForest::save writes before
 * its trees and return n; fatal unless it is well formed and n > 0.
 * The n trees follow, each for DecisionTree::load. Defined with
 * RandomForest::load.
 */
std::size_t readForestHeader(std::istream &is);

/**
 * Make room for one more element of @p v, which a well-formed record
 * fills to @p count elements. The count comes from the file, so it
 * is trusted only as far as elements have arrived: capacity starts at
 * no more than 64k elements and at most doubles, never past @p count.
 * A corrupt count then reaches the loader's truncation check instead
 * of sizing an allocation, and a well-formed record ends with
 * capacity exactly @p count, as a single reserve would leave it.
 */
template <typename V>
void
reserveTowards(V &v, std::size_t count)
{
    if (v.size() == v.capacity()) {
        v.reserve(std::min(
            count, std::max<std::size_t>(2 * v.capacity(), 1 << 16)));
    }
}

} // namespace gpupm::ml::detail
