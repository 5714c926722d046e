"""Golden caption records and their frozen renderings.

The expected strings were written down from the template table and the
fixture tuples before the renderer ran; tests compare rendered output
against them byte for byte.
"""

from __future__ import annotations

from eventprobe.manipulate import ManipulationRecord, _derived
from eventprobe.profiles import ManipulationCategory

from .helpers import attr, entity, make_tuple, pred, span


def record_for(category_key, original, manipulated, video_id="v", record_id=None):
    return ManipulationRecord(
        record_id=record_id or f"{category_key}#0000",
        category=ManipulationCategory.from_key(category_key),
        video_id=video_id,
        original=tuple(original),
        manipulated=tuple(manipulated),
        seed=0,
    )


def swap_times(e1, e2):
    return _derived(e1, time=e2.time), _derived(e2, time=e1.time)


def build_golden_records() -> dict[str, ManipulationRecord]:
    person = entity("p1", "person")
    k1 = make_tuple(
        "k1", person, predicate=pred("slices"),
        obj=entity("b1", "bread"), obj_attrs=(attr("brown"),), time=span(2, 4),
    )
    k2 = make_tuple(
        "k2", person, predicate=pred("opens"),
        obj=entity("o1", "oven"), obj_attrs=(attr("white"),), time=span(10, 12),
    )
    k3 = make_tuple(
        "k3", person, attrs=(attr("white"),), predicate=pred("kneels on", "Contact"),
        obj=entity("y1", "yard"), obj_attrs=(attr("yellow"),), time=span(20, 30),
    )
    k4 = make_tuple(
        "k4", person, attrs=(attr("white"),), predicate=pred("touches", "Contact"),
        obj=entity("m1", "mulch"), obj_attrs=(attr("brown"),), time=span(35, 40),
    )
    bike = entity("e1", "bike")
    f1 = make_tuple("f1", bike, attrs=(attr("yellow"),), time=span(0, 5))
    f2 = make_tuple("f2", bike, attrs=(attr("black"),), time=span(20, 25))
    smoke = make_tuple(
        "m2", entity("g4", "smoke ring"), attrs=(attr("white"),),
        obj=entity("g5", "pipe"), obj_attrs=(attr("brown"),), time=span(20, 30),
    )
    greg = make_tuple(
        "m1", entity("g1", "Greg Focker"), predicate=pred("carries"),
        obj=entity("g2", "lawn chairs"), time=span(5, 15),
    )
    chalk = make_tuple(
        "k5", entity("c1", "chalk"), attrs=(attr("white"),),
        predicate=pred("is drawn on", "Contact"),
        obj=entity("s1", "street"), obj_attrs=(attr("white"),), time=span(50, 60),
    )
    boy = make_tuple(
        "m3", entity("b2", "boy"), predicate=pred("on", "SpatialRelationship"),
        obj=entity("h1", "hill"), obj_attrs=(attr("white"),), time=span(40, 50),
    )

    return {
        "temporal.predicate.Action": record_for(
            "temporal.predicate.Action", [k1, k2], list(swap_times(k1, k2))
        ),
        "temporal.predicate.Contact": record_for(
            "temporal.predicate.Contact", [k3, k4], list(swap_times(k3, k4))
        ),
        "temporal.attribute.Color": record_for(
            "temporal.attribute.Color",
            [f1, f2],
            [
                _derived(f1, subject_attrs=(attr("black"),)),
                _derived(f2, subject_attrs=(attr("yellow"),)),
            ],
        ),
        "neighborhood.attribute.Color": record_for(
            "neighborhood.attribute.Color",
            [smoke],
            [
                _derived(
                    smoke,
                    subject_attrs=(attr("brown"),),
                    object_attrs=(attr("white"),),
                )
            ],
        ),
        "counterfactual.predicate.Action": record_for(
            "counterfactual.predicate.Action",
            [greg],
            [_derived(greg, predicate=pred("assembles"))],
        ),
        "counterfactual.predicate.Contact": record_for(
            "counterfactual.predicate.Contact",
            [chalk],
            [_derived(chalk, predicate=pred("is erased from", "Contact"))],
        ),
        "counterfactual.predicate.SpatialRelationship": record_for(
            "counterfactual.predicate.SpatialRelationship",
            [boy],
            [_derived(boy, predicate=pred("beside", "SpatialRelationship"))],
        ),
        "counterfactual.attribute.Color": record_for(
            "counterfactual.attribute.Color",
            [f2],
            [_derived(f2, subject_attrs=(attr("red"),))],
        ),
    }


# One frozen (positive, negative) caption pair per category.
GOLDEN_TEXTS = {
    "temporal.predicate.Action": (
        "the person slices the bread, then the person opens the oven",
        "the person opens the oven, while the person slices the bread",
    ),
    "temporal.predicate.Contact": (
        "the person kneels on the yard, then the person touches the mulch",
        "the person touches the mulch, while the person kneels on the yard",
    ),
    "temporal.attribute.Color": (
        "the bike is yellow, then the bike is black",
        "the bike is black, then the bike is yellow",
    ),
    "neighborhood.attribute.Color": (
        "the smoke ring is white and the pipe is brown",
        "the smoke ring is brown while the pipe is white",
    ),
    "counterfactual.predicate.Action": (
        "Greg Focker carries lawn chairs",
        "Greg Focker assembles lawn chairs",
    ),
    "counterfactual.predicate.Contact": (
        "the chalk is drawn on the street",
        "the chalk is erased from the street",
    ),
    "counterfactual.predicate.SpatialRelationship": (
        "the boy is on the hill",
        "the boy is beside the hill",
    ),
    "counterfactual.attribute.Color": (
        "the bike is black",
        "the bike is red",
    ),
}
