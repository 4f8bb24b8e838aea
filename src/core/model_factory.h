#pragma once
// Unified entry point: fit any of the four compared models to a
// sample set and get it back behind the TimingModel interface.

#include <memory>
#include <span>
#include <vector>

#include "core/timing_model.h"

namespace lvf2::core {

/// Fits the model of the requested kind. The mixtures (LVF2, Norm2,
/// LVFk) walk Mixture::fit's degradation chain down to a point mass
/// and return nullptr only for an empty sample set; LVF and LESN
/// return nullptr for empty or constant sets (LESN also below 4
/// samples).
std::unique_ptr<TimingModel> fit_model(ModelKind kind,
                                       std::span<const double> samples,
                                       const FitOptions& options = {});

/// Fits all four models (paper order: LVF2, Norm2, LESN, LVF).
/// Entries for models that failed to fit are nullptr.
std::vector<std::unique_ptr<TimingModel>> fit_all_models(
    std::span<const double> samples, const FitOptions& options = {});

/// Refits a model family to a tabulated distribution — the node
/// refit of block-based SSTA, which maintains each model's
/// parametric form along propagation. Moments-based families (LVF,
/// LESN) match the grid moments; the mixtures run weighted EM over
/// the grid.
std::unique_ptr<TimingModel> refit_model(ModelKind kind,
                                         const stats::GridPdf& pdf,
                                         const FitOptions& options = {});

}  // namespace lvf2::core
