/**
 * @file
 * Builders for the two end-to-end DeathStarBench applications the paper
 * evaluates (Sec. 2.2): the Hotel Reservation site (Figure 1) and the
 * Social Network (Figure 2). Tier names follow the paper's Figure 12
 * legend so the explainability results (Table 4) are directly comparable.
 *
 * Service demands are calibrated so that, at the paper's load points,
 * aggregate CPU needs fall in the same tens-to-hundreds-of-cores range as
 * the paper's Figure 11, and so that the end-to-end p99 sits near the QoS
 * target (200 ms hotel / 500 ms social) exactly when per-tier allocations
 * approach the boundary of the feasible region.
 */
#ifndef SINAN_APP_APPS_H
#define SINAN_APP_APPS_H

#include "cluster/spec.h"

namespace sinan {

/** Knobs for BuildSocialNetwork (the paper's Sec. 5.4 / 5.6 variants). */
struct SocialOptions {
    /**
     * Posts are AES-encrypted before storage (retraining scenario 3 of
     * Sec. 5.4): adds CPU demand on the compose/post-storage path.
     */
    bool aes_encryption = false;

    /**
     * Enables the social-graph Redis minutely log synchronization whose
     * fork-and-copy stalls cause the latency spikes of Fig. 16. Disabled
     * by default, matching the fixed deployment.
     */
    bool redis_log_sync = false;
};

/** Builds the 17-tier Hotel Reservation application (QoS: 200 ms p99). */
Application BuildHotelReservation();

/** Builds the 28-tier Social Network application (QoS: 500 ms p99). */
Application BuildSocialNetwork(const SocialOptions& opts = {});

/**
 * Overrides the request-type mix weights. @p weights must have one entry
 * per request type, in Application::request_types order. Used for the
 * W0..W3 mixes of Sec. 5.5.
 */
void SetRequestMix(Application& app, const std::vector<double>& weights);

/**
 * The four Social Network mixes of Sec. 5.5, as
 * ComposePost : ReadHomeTimeline : ReadUserTimeline weights.
 * W0 = 5:80:15 (training mix), W1 = 10:80:10, W2 = 1:90:9, W3 = 5:70:25.
 */
std::vector<std::vector<double>> SocialNetworkMixes();

} // namespace sinan

#endif // SINAN_APP_APPS_H
