#include "app/apps.h"

#include <stdexcept>

namespace sinan {

namespace {

/** Convenience factory for a tier spec with the fields that vary. */
TierSpec
MakeTier(const std::string& name, int conc_per_replica, int replicas,
         double init_cpu, double max_cpu, double base_rss_mb,
         double base_cache_mb, double cache_per_req_mb = 0.0)
{
    TierSpec t;
    t.name = name;
    t.concurrency_per_replica = conc_per_replica;
    t.replicas = replicas;
    t.init_cpu = init_cpu;
    t.min_cpu = 0.4;
    t.max_cpu = max_cpu;
    t.base_rss_mb = base_rss_mb;
    t.base_cache_mb = base_cache_mb;
    t.cache_per_req_mb = cache_per_req_mb;
    return t;
}

} // namespace

Application
BuildHotelReservation()
{
    Application app;
    app.name = "hotel-reservation";
    app.qos_ms = 200.0;

    // Tiers of Figure 1: frontend, business logic, caches and databases.
    // (name, conc/replica, replicas, init cpu, max cpu, rss, cache)
    app.tiers = {
        MakeTier("frontend", 64, 8, 4.0, 16.0, 120, 20),
        MakeTier("search", 32, 4, 3.0, 16.0, 90, 20),
        MakeTier("geo", 32, 4, 2.0, 16.0, 80, 20),
        MakeTier("rate", 32, 4, 2.0, 16.0, 80, 20),
        MakeTier("profile", 32, 4, 2.0, 16.0, 80, 20),
        MakeTier("recommend", 32, 4, 2.0, 16.0, 90, 20),
        MakeTier("user", 32, 4, 1.0, 8.0, 70, 20),
        MakeTier("reserve", 32, 4, 1.0, 8.0, 80, 20),
        MakeTier("profile-memc", 64, 2, 1.0, 8.0, 60, 200),
        MakeTier("profile-mongo", 64, 2, 2.0, 16.0, 150, 250, 0.002),
        MakeTier("geo-mongo", 64, 2, 2.0, 16.0, 150, 250, 0.002),
        MakeTier("rate-memc", 64, 2, 1.0, 8.0, 60, 200),
        MakeTier("rate-mongo", 64, 2, 2.0, 16.0, 150, 250, 0.002),
        MakeTier("user-mongo", 64, 2, 1.0, 8.0, 140, 200, 0.002),
        MakeTier("recommend-mongo", 64, 2, 2.0, 16.0, 150, 250, 0.002),
        MakeTier("reserve-memc", 64, 2, 1.0, 8.0, 60, 150),
        MakeTier("reserve-mongo", 64, 2, 1.0, 8.0, 150, 250, 0.002),
    };

    // The frontend serves every request and needs burst headroom even at
    // the smallest allocation (a cgroup quota stretches single-request
    // service time, so floors are sized to per-request burst needs).
    app.tiers[app.TierIndex("frontend")].min_cpu = 0.8;

    auto tix = [&](const char* n) {
        const int i = app.TierIndex(n);
        if (i < 0)
            throw std::logic_error(std::string("hotel: unknown tier ") + n);
        return i;
    };
    // Node helper: demand is given in milliseconds of single-core time.
    auto node = [&](const char* n, double demand_ms, double hit_prob = 0.0,
                    std::vector<CallNode> children = {}) {
        CallNode c;
        c.tier = tix(n);
        c.demand_s = demand_ms / 1000.0;
        c.hit_prob = hit_prob;
        c.children = std::move(children);
        return c;
    };

    // SearchHotel: frontend -> search -> {geo, rate}, then profiles.
    RequestType search;
    search.name = "SearchHotel";
    search.weight = 60.0;
    search.root = node("frontend", 1.5, 0.0, {
        node("search", 2.0, 0.0, {
            node("geo", 2.0, 0.0, {node("geo-mongo", 3.0)}),
            node("rate", 2.0, 0.0, {
                node("rate-memc", 0.4, 0.8, {node("rate-mongo", 3.5)}),
            }),
        }),
        node("profile", 2.0, 0.0, {
            node("profile-memc", 0.4, 0.8, {node("profile-mongo", 3.5)}),
        }),
    });

    // Recommend: frontend -> recommend -> recommend-mongo, plus profiles.
    RequestType recommend;
    recommend.name = "Recommend";
    recommend.weight = 30.0;
    recommend.root = node("frontend", 1.5, 0.0, {
        node("recommend", 3.0, 0.0, {node("recommend-mongo", 3.5)}),
        node("profile", 2.0, 0.0, {
            node("profile-memc", 0.4, 0.8, {node("profile-mongo", 3.5)}),
        }),
    });

    // ReserveHotel: frontend -> user auth, then reservation write path.
    RequestType reserve;
    reserve.name = "ReserveHotel";
    reserve.weight = 5.0;
    reserve.root = node("frontend", 1.5, 0.0, {
        node("user", 1.5, 0.0, {node("user-mongo", 3.0)}),
        node("reserve", 2.5, 0.0, {
            node("reserve-memc", 0.5),
            node("reserve-mongo", 4.0),
        }),
    });

    // UserLogin: frontend -> user -> user-mongo.
    RequestType login;
    login.name = "UserLogin";
    login.weight = 5.0;
    login.root = node("frontend", 1.2, 0.0, {
        node("user", 1.5, 0.0, {node("user-mongo", 3.0)}),
    });

    app.request_types = {search, recommend, reserve, login};
    return app;
}

} // namespace sinan
