#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "kernel/perf_model.hpp"
#include "ml/serialize.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

TrainerOptions
tinyOptions()
{
    TrainerOptions opts;
    opts.corpusSize = 8;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    return opts;
}

TEST(Serialize, RoundTripIsBitExact)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    auto loaded = loadRandomForest(buffer);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto ks = workload::trainingCorpus(4, 0xfeed);
    for (const auto &k : ks) {
        for (std::size_t ci = 0; ci < space.size(); ci += 31) {
            const auto &c = space.at(ci);
            PredictionQuery q;
            const auto est = model.estimate(k, c);
            q.counters = model.counters(k, c, est);
            q.instructions = k.instructions();
            const auto a = original->predict(q, c);
            const auto b = loaded->predict(q, c);
            EXPECT_DOUBLE_EQ(a.time, b.time);
            EXPECT_DOUBLE_EQ(a.gpuPower, b.gpuPower);
        }
    }
}

TEST(Serialize, SecondRoundTripIdenticalText)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream s1;
    saveRandomForest(*original, s1);
    auto loaded = loadRandomForest(s1);
    std::stringstream s2;
    saveRandomForest(*loaded, s2);
    EXPECT_EQ(s1.str(), s2.str());
}

TEST(Serialize, PreservesForestStructure)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    auto loaded = loadRandomForest(buffer);
    EXPECT_EQ(loaded->timeForest().treeCount(),
              original->timeForest().treeCount());
    EXPECT_EQ(loaded->timeForest().totalNodes(),
              original->timeForest().totalNodes());
    EXPECT_EQ(loaded->powerForest().totalNodes(),
              original->powerForest().totalNodes());
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream s("not a model at all");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "gpupm-rf");
}

TEST(Serialize, RejectsWrongVersion)
{
    std::stringstream s("gpupm-rf v9\nfeatures 17\n");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "gpupm-rf");
}

TEST(Serialize, RejectsFeatureMismatch)
{
    std::stringstream s("gpupm-rf v1\nfeatures 3\n");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "retrain");
}

TEST(Serialize, RejectsTruncatedStream)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    std::string text = buffer.str();
    std::stringstream truncated(text.substr(0, text.size() / 2));
    EXPECT_EXIT(loadRandomForest(truncated),
                testing::ExitedWithCode(1), ".*");
}

TEST(Serialize, RejectsCorruptCountsWithoutAllocating)
{
    // A count from the file sizes nothing before its records arrive:
    // each of these dies with a loader fatal instead of a bad_alloc
    // or length_error abort.
    std::stringstream huge_tree("tree 4000000000 16\n-1 0 -1 -1 1\n");
    EXPECT_EXIT(DecisionTree::load(huge_tree),
                testing::ExitedWithCode(1), "truncated tree node list");
    std::stringstream huge_forest(
        "forest trees 99999999999999\ntree 1 0\n-1 0 -1 -1 1\n");
    EXPECT_EXIT(RandomForest::load(huge_forest),
                testing::ExitedWithCode(1), "malformed tree header");
    std::stringstream negative("tree -3 0\n-1 0 -1 -1 1\n");
    EXPECT_EXIT(DecisionTree::load(negative), testing::ExitedWithCode(1),
                "malformed tree header");
    std::stringstream no_nodes("tree 0 0\n");
    EXPECT_EXIT(DecisionTree::load(no_nodes), testing::ExitedWithCode(1),
                "zero nodes");
    std::stringstream no_trees("forest trees 0\n");
    EXPECT_EXIT(RandomForest::load(no_trees), testing::ExitedWithCode(1),
                "zero trees");
}

/** A two-forest model whose first tree is @p time_tree. */
std::string
modelWithTimeTree(std::string_view time_tree)
{
    return "gpupm-rf v1\nfeatures " + std::to_string(numFeatures) +
           "\ntarget time\nforest trees 1\n" + std::string(time_tree) +
           "target power\nforest trees 1\ntree 1 0\n-1 0 -1 -1 1\n";
}

TEST(Serialize, RejectsSelfLoopChild)
{
    // Node 0 is its own child. Loaded, FlatForest::compile's
    // breadth-first renumbering would re-enqueue it until memory ran
    // out.
    const std::string self_loop = "tree 1 0\n0 0.5 0 0 0\n";
    std::stringstream tree(self_loop);
    EXPECT_EXIT(DecisionTree::load(tree), testing::ExitedWithCode(1),
                "reached twice");
    std::stringstream model(modelWithTimeTree(self_loop));
    EXPECT_EXIT(loadRandomForest(model), testing::ExitedWithCode(1),
                "reached twice");
}

TEST(Serialize, RejectsSharedChild)
{
    std::stringstream s("tree 3 1\n0 0.5 1 1 0\n-1 0 -1 -1 1\n"
                        "-1 0 -1 -1 2\n");
    EXPECT_EXIT(DecisionTree::load(s), testing::ExitedWithCode(1),
                "reached twice");
}

TEST(Serialize, RejectsUnreachableNodes)
{
    // A leaf root leaves the other two nodes dangling.
    std::stringstream leaf_root("tree 3 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n-1 0 -1 -1 3\n");
    EXPECT_EXIT(DecisionTree::load(leaf_root),
                testing::ExitedWithCode(1), "2 of 3 nodes unreachable");
    // A self-loop off to the side of a well-formed tree.
    std::stringstream side_loop("tree 4 1\n0 0.5 1 2 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n0 0.5 3 3 0\n");
    EXPECT_EXIT(DecisionTree::load(side_loop),
                testing::ExitedWithCode(1), "1 of 4 nodes unreachable");
}

/**
 * A model whose time tree is a chain of @p levels splits on feature 0:
 * split i has threshold i + 0.5 and a leaf of value i on its left, so
 * a row with f[0] = k (k <= levels) stops at depth k and predicts k.
 */
std::string
chainModel(std::size_t levels)
{
    std::string tree = "tree " + std::to_string(2 * levels + 1) + ' ' +
                       std::to_string(levels) + '\n';
    for (std::size_t i = 0; i < levels; ++i) {
        tree += "0 " + std::to_string(i) + ".5 " +
                std::to_string(2 * i + 1) + ' ' +
                std::to_string(2 * i + 2) + " 0\n-1 0 -1 -1 " +
                std::to_string(i) + '\n';
    }
    tree += "-1 0 -1 -1 " + std::to_string(levels) + '\n';
    return modelWithTimeTree(tree);
}

TEST(Serialize, RejectsTreesDeeperThanTheWalkDepth)
{
    // Walk depths are 16-bit: a 70,000-level chain would wrap its walk
    // count and read past the arena instead of reaching its leaves.
    std::stringstream s(chainModel(70000));
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "tree deeper than 65535 levels");
}

TEST(Serialize, DeepestWalkableTreeMatchesRandomForest)
{
    std::stringstream s(chainModel(65535));
    const auto loaded = loadRandomForest(s);
    const auto flat = FlatForest::compile(loaded->timeForest());
    for (const double k : {0.0, 1.0, 40000.0, 65534.0, 65535.0, 1e9}) {
        FeatureVector row{};
        row[0] = k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.predict(row)),
                  std::bit_cast<std::uint64_t>(
                      loaded->timeForest().predict(row)))
            << "f[0] = " << k;
        EXPECT_EQ(flat.predict(row), std::min(k, 65535.0));
    }
}

/** Every tree of a model text as `>>` reads it: the reference parse. */
struct ReferenceTree
{
    int depth = 0;
    std::vector<DecisionTree::Node> nodes;
};

std::vector<std::vector<ReferenceTree>>
referenceParse(const std::string &text)
{
    std::istringstream is(text);
    std::string word;
    is >> word >> word >> word >> word; // gpupm-rf v1 features <n>
    std::vector<std::vector<ReferenceTree>> forests(2);
    for (auto &forest : forests) {
        std::size_t trees = 0;
        is >> word >> word >> word >> word >> trees;
        forest.resize(trees);
        for (auto &tree : forest) {
            std::size_t count = 0;
            is >> word >> count >> tree.depth;
            tree.nodes.resize(count);
            for (auto &n : tree.nodes) {
                is >> n.feature >> n.threshold >> n.left >> n.right >>
                    n.value;
            }
        }
    }
    EXPECT_FALSE(is.fail()) << "reference parse failed";
    return forests;
}

/** Compare @p forest node by node, doubles by their bits. */
void
expectSameTrees(const RandomForest &forest,
                const std::vector<ReferenceTree> &reference)
{
    ASSERT_EQ(forest.treeCount(), reference.size());
    for (std::size_t t = 0; t < reference.size(); ++t) {
        const auto &nodes = forest.trees()[t].nodes();
        const auto &want = reference[t].nodes;
        EXPECT_EQ(forest.trees()[t].depth(), reference[t].depth);
        ASSERT_EQ(nodes.size(), want.size()) << "tree " << t;
        for (std::size_t i = 0; i < want.size(); ++i) {
            const auto &a = nodes[i];
            const auto &b = want[i];
            const auto bits = [](double d) {
                return std::bit_cast<std::uint64_t>(d);
            };
            EXPECT_TRUE(a.feature == b.feature && a.left == b.left &&
                        a.right == b.right &&
                        bits(a.threshold) == bits(b.threshold) &&
                        bits(a.value) == bits(b.value))
                << "tree " << t << " node " << i;
        }
    }
}

TEST(Serialize, LoadMatchesStreamExtractionBitForBit)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    const std::string text = buffer.str();
    const auto reference = referenceParse(text);
    std::istringstream is(text);
    const auto loaded = loadRandomForest(is);
    expectSameTrees(loaded->timeForest(), reference[0]);
    expectSameTrees(loaded->powerForest(), reference[1]);
}

TEST(Serialize, ExtremeDoublesMatchStreamExtraction)
{
    // A complete tree whose thresholds and leaf values are written the
    // way save() writes them (max_digits10): special values first,
    // then finite doubles drawn from random bit patterns, so every
    // exponent range, subnormals included, meets both parsers.
    std::vector<double> values = {
        0.0, -0.0, 0.1, -2.5, 1e-300, -1e300,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon()};
    Pcg32 rng(0x10ad);
    const std::size_t internal = 511, count = 2 * internal + 1;
    while (values.size() < count) {
        const std::uint64_t bits =
            (static_cast<std::uint64_t>(rng.nextU32()) << 32) |
            rng.nextU32();
        const double v = std::bit_cast<double>(bits);
        if (std::isfinite(v))
            values.push_back(v);
    }
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "gpupm-rf v1\nfeatures " << numFeatures
       << "\ntarget time\nforest trees 1\ntree " << count << " 9\n";
    for (std::size_t i = 0; i < count; ++i) {
        if (i < internal) {
            os << i % numFeatures << ' ' << values[i] << ' ' << 2 * i + 1
               << ' ' << 2 * i + 2 << " 0\n";
        } else {
            os << "-1 0 -1 -1 " << values[i] << '\n';
        }
    }
    os << "target power\nforest trees 1\ntree 1 0\n-1 0 -1 -1 1\n";
    const std::string text = os.str();
    const auto reference = referenceParse(text);
    std::istringstream is(text);
    const auto loaded = loadRandomForest(is);
    expectSameTrees(loaded->timeForest(), reference[0]);
    expectSameTrees(loaded->powerForest(), reference[1]);
}

std::string
replaceAll(std::string s, std::string_view from, std::string_view to)
{
    for (std::size_t at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size())) {
        s.replace(at, from.size(), to);
    }
    return s;
}

TEST(Serialize, AcceptsWhitespaceVariants)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    const std::string text = buffer.str();
    ASSERT_EQ(text.back(), '\n');
    const std::vector<std::string> variants = {
        replaceAll(text, "\n", "\r\n"),
        replaceAll(text, " ", "\t"),
        replaceAll(replaceAll(text, " ", "   "), "\n", " \n\n  "),
        text.substr(0, text.size() - 1),
    };
    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::istringstream is(variants[v]);
        const auto loaded = loadRandomForest(is);
        std::stringstream resaved;
        saveRandomForest(*loaded, resaved);
        EXPECT_EQ(resaved.str(), text) << "variant " << v;
    }
}

TEST(Serialize, RejectsNonFiniteAndMalformedNumbers)
{
    const auto model = [](std::string_view threshold,
                          std::string_view value) {
        return modelWithTimeTree("tree 3 1\n0 " + std::string(threshold) +
                                 " 1 2 0\n-1 0 -1 -1 " +
                                 std::string(value) +
                                 "\n-1 0 -1 -1 2\n");
    };
    {
        std::stringstream good(model("0.5", "1.5"));
        EXPECT_EQ(loadRandomForest(good)->timeForest().totalNodes(), 3U);
    }
    for (const char *bad : {"nan", "inf", "-inf", "1e999", "0.5x"}) {
        std::stringstream as_threshold(model(bad, "1.5"));
        EXPECT_EXIT(loadRandomForest(as_threshold),
                    testing::ExitedWithCode(1), "truncated|non-finite")
            << bad;
        std::stringstream as_value(model("0.5", bad));
        EXPECT_EXIT(loadRandomForest(as_value), testing::ExitedWithCode(1),
                    "truncated|non-finite")
            << bad;
    }
}

TEST(Serialize, ConsumesExactlyOneModel)
{
    // Two models back to back, then a word of something else: each
    // load must stop right after its own last token.
    auto first = trainRandomForestPredictor(tinyOptions());
    auto opts = tinyOptions();
    opts.forest.numTrees = 3;
    opts.forest.seed = 0xbac4;
    auto second = trainRandomForestPredictor(opts);
    std::stringstream a, b, both;
    saveRandomForest(*first, a);
    saveRandomForest(*second, b);
    both << a.str() << b.str() << "tail";

    const auto load_first = loadRandomForest(both);
    const auto load_second = loadRandomForest(both);
    std::stringstream ra, rb;
    saveRandomForest(*load_first, ra);
    saveRandomForest(*load_second, rb);
    EXPECT_EQ(ra.str(), a.str());
    EXPECT_EQ(rb.str(), b.str());
    std::string rest;
    EXPECT_TRUE(both >> rest);
    EXPECT_EQ(rest, "tail");

    // Tree by tree, too: the byte after a tree is still the stream's.
    std::stringstream tree("tree 1 0\n-1 0 -1 -1 1.5\nnext");
    EXPECT_EQ(DecisionTree::load(tree).nodeCount(), 1U);
    EXPECT_EQ(tree.get(), '\n');
}

TEST(Serialize, TreeSaveRequiresFit)
{
    DecisionTree t;
    std::stringstream s;
    EXPECT_DEATH(t.save(s), "unfitted");
    RandomForest rf;
    EXPECT_DEATH(rf.save(s), "unfitted");
}

} // namespace
} // namespace gpupm::ml
