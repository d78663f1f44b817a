#include "workload/applications.hpp"

#include <stdexcept>

#include "profile/function_spec.hpp"

namespace esg::workload {

using profile::Function;

std::vector<AppDag> builtin_applications() {
  std::vector<AppDag> apps;
  apps.push_back(make_pipeline(
      id_of(App::kImageClassification), "image_classification",
      {profile::id_of(Function::kSuperResolution),
       profile::id_of(Function::kSegmentation),
       profile::id_of(Function::kClassification)}));
  apps.push_back(make_pipeline(
      id_of(App::kDepthRecognition), "depth_recognition",
      {profile::id_of(Function::kDeblur),
       profile::id_of(Function::kSuperResolution),
       profile::id_of(Function::kDepthRecognition)}));
  apps.push_back(make_pipeline(
      id_of(App::kBackgroundElimination), "background_elimination",
      {profile::id_of(Function::kSuperResolution),
       profile::id_of(Function::kDeblur),
       profile::id_of(Function::kBackgroundRemoval)}));
  apps.push_back(make_pipeline(
      id_of(App::kExpandedClassification), "expanded_image_classification",
      {profile::id_of(Function::kDeblur),
       profile::id_of(Function::kSuperResolution),
       profile::id_of(Function::kBackgroundRemoval),
       profile::id_of(Function::kSegmentation),
       profile::id_of(Function::kClassification)}));
  return apps;
}

std::string_view to_string(SloSetting s) {
  switch (s) {
    case SloSetting::kStrict:
      return "strict";
    case SloSetting::kModerate:
      return "moderate";
    case SloSetting::kRelaxed:
      return "relaxed";
  }
  throw std::invalid_argument("to_string: bad SloSetting");
}

double slo_multiplier(SloSetting s) {
  switch (s) {
    case SloSetting::kStrict:
      return 0.8;
    case SloSetting::kModerate:
      return 1.0;
    case SloSetting::kRelaxed:
      return 1.2;
  }
  throw std::invalid_argument("slo_multiplier: bad SloSetting");
}

TimeMs baseline_latency_ms(const AppDag& dag,
                           const profile::ProfileSet& profiles) {
  std::vector<TimeMs> node_ms;
  for (const DagNode& node : dag.nodes()) {
    node_ms.push_back(
        profiles.table(node.function).min_config_entry().latency_ms);
  }
  return longest_path_ms(dag, node_ms);
}

TimeMs slo_latency_ms(const AppDag& dag, const profile::ProfileSet& profiles,
                      SloSetting setting) {
  return slo_multiplier(setting) * baseline_latency_ms(dag, profiles);
}

}  // namespace esg::workload
