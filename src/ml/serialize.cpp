#include "ml/serialize.hpp"

#include <ostream>
#include <string_view>

#include "common/logging.hpp"
#include "ml/model_reader.hpp"

namespace gpupm::ml {

void
saveRandomForest(const TrainedForests &forests, std::ostream &os)
{
    os << "gpupm-rf v1\n";
    os << "features " << numFeatures << '\n';
    os << "target time\n";
    forests.time.save(os);
    os << "target power\n";
    forests.power.save(os);
    GPUPM_ASSERT(os.good(), "stream failure while saving predictor");
}

std::unique_ptr<RandomForestPredictor>
loadRandomForest(std::istream &is)
{
    detail::ModelReader in(is);
    if (in.token() != "gpupm-rf" || in.token() != "v1")
        GPUPM_FATAL("not a gpupm-rf v1 model stream");

    int features = 0;
    if (in.token() != "features" || !in.number(features))
        GPUPM_FATAL("malformed model header");
    if (features != numFeatures) {
        GPUPM_FATAL("model was trained with ", features,
                    " features but this build expects ", numFeatures,
                    "; retrain instead of loading");
    }

    auto expect_target = [&](std::string_view name) {
        if (in.token() != "target" || in.token() != name)
            GPUPM_FATAL("expected 'target ", name, "' section");
    };
    expect_target("time");
    FlatForest time = FlatForest::load(is);
    expect_target("power");
    FlatForest power = FlatForest::load(is);

    return std::make_unique<RandomForestPredictor>(std::move(time),
                                                   std::move(power));
}

} // namespace gpupm::ml
